"""Decomposition graphs and the graph algorithms the decomposer relies on."""

from repro.graph.decomposition_graph import DecompositionGraph, VertexData
from repro.graph.flat import (
    FLAT_FRAME_VERSION,
    FlatFrameError,
    FlatGraph,
    flatten_graph,
    graph_from_frame,
)
from repro.graph.construction import (
    ConstructionOptions,
    ConstructionResult,
    build_decomposition_graph,
)
from repro.graph.components import connected_components
from repro.graph.biconnected import articulation_points, biconnected_components
from repro.graph.maxflow import FlowNetwork
from repro.graph.gomory_hu import GomoryHuTree, gomory_hu_tree
from repro.graph.simplify import (
    MergedGraph,
    build_merged_graph,
    peel_low_degree_vertices,
    reinsert_peeled_vertices,
)
from repro.graph.stitch import StitchCandidate, find_stitch_candidates, split_feature
from repro.graph.unionfind import UnionFind

__all__ = [
    "DecompositionGraph",
    "VertexData",
    "FLAT_FRAME_VERSION",
    "FlatFrameError",
    "FlatGraph",
    "flatten_graph",
    "graph_from_frame",
    "ConstructionOptions",
    "ConstructionResult",
    "build_decomposition_graph",
    "connected_components",
    "articulation_points",
    "biconnected_components",
    "FlowNetwork",
    "GomoryHuTree",
    "gomory_hu_tree",
    "MergedGraph",
    "build_merged_graph",
    "peel_low_degree_vertices",
    "reinsert_peeled_vertices",
    "StitchCandidate",
    "find_stitch_candidates",
    "split_feature",
    "UnionFind",
]
