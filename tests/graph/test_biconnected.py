"""Unit tests for articulation points and biconnected components.

Random graphs are cross-checked against networkx, which is used as a test
oracle only (the library implementation is self-contained).
"""

import networkx as nx
import numpy as np
import pytest

from repro.graph.biconnected import articulation_points, biconnected_components
from repro.graph.decomposition_graph import DecompositionGraph


def to_nx(graph: DecompositionGraph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(graph.vertices())
    g.add_edges_from(graph.conflict_edges())
    g.add_edges_from(graph.stitch_edges())
    return g


def random_graph(n: int, p: float, seed: int) -> DecompositionGraph:
    rng = np.random.default_rng(seed)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return DecompositionGraph.from_edges(edges, vertices=range(n))


class TestArticulationPoints:
    def test_path_interior_vertices(self):
        g = DecompositionGraph.from_edges([(0, 1), (1, 2), (2, 3)])
        assert articulation_points(g) == {1, 2}

    def test_cycle_has_none(self):
        g = DecompositionGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        assert articulation_points(g) == set()

    def test_two_triangles_sharing_a_vertex(self):
        g = DecompositionGraph.from_edges(
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]
        )
        assert articulation_points(g) == {2}

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_networkx(self, seed):
        g = random_graph(18, 0.15, seed)
        expected = set(nx.articulation_points(to_nx(g)))
        assert articulation_points(g) == expected


class TestBiconnectedComponents:
    def test_two_triangles_sharing_a_vertex(self):
        g = DecompositionGraph.from_edges(
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]
        )
        blocks = biconnected_components(g)
        assert sorted(map(tuple, blocks)) == [(0, 1, 2), (2, 3, 4)]

    def test_isolated_vertex_forms_singleton_block(self):
        g = DecompositionGraph.from_edges([(0, 1)], vertices=[5])
        blocks = biconnected_components(g)
        assert [5] in blocks

    def test_every_vertex_covered(self):
        g = DecompositionGraph.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 1), (4, 5)], vertices=[9]
        )
        blocks = biconnected_components(g)
        covered = {v for block in blocks for v in block}
        assert covered == set(g.vertices())

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_networkx(self, seed):
        g = random_graph(16, 0.15, seed)
        expected = sorted(
            tuple(sorted(block)) for block in nx.biconnected_components(to_nx(g))
        )
        got = [
            tuple(block) for block in biconnected_components(g) if len(block) > 1
        ]
        assert sorted(got) == expected
