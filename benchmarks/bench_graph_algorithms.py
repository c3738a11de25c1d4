"""Micro-benchmarks of the substrates the decomposer is built on.

These do not map to a specific table but keep the expensive building blocks
honest: decomposition-graph construction (strip sweeps + exact distances),
the Gomory-Hu division (the K-classes the division runs: n-1 flows capped
at K between contracted classes; and the exact tree it is checked against:
Gusfield's n-1 uncapped max-flows on one reused network), the
vector-program solver, and the low-degree peeling pass.
Regressions here translate directly into the Table 1/2 CPU columns.
"""

from __future__ import annotations

import pytest

from repro.bench.circuits import load_circuit
from repro.bench.synthetic import dense_contact_array
from repro.core.kernels.adjacency import CSRAdjacency
from repro.core.options import DecomposerOptions
from repro.graph.construction import build_decomposition_graph
from repro.graph.gomory_hu import gomory_hu_tree
from repro.graph.simplify import peel_low_degree_vertices
from repro.opt.sdp import VectorProgramSolver

from conftest import bench_scale


@pytest.mark.parametrize("circuit", ["C432", "C7552"])
def test_graph_construction(benchmark, circuit):
    """Layout -> decomposition graph (conflict, stitch and friend edges)."""
    benchmark.group = "construction"
    layout = load_circuit(circuit, scale=bench_scale())
    options = DecomposerOptions.for_quadruple_patterning().construction

    result = benchmark(lambda: build_decomposition_graph(layout, options=options))
    benchmark.extra_info["vertices"] = result.graph.num_vertices
    benchmark.extra_info["conflict_edges"] = result.graph.num_conflict_edges


@pytest.mark.parametrize("case", ["components_below", "exact_tree"])
def test_gomory_hu_division(benchmark, case):
    """GH division of a dense contact-array conflict graph: the pieces the
    division cuts at K=4 (``components_below``), or the exact tree
    (``edges``) that serves as their reference."""
    benchmark.group = "graph-algorithms"
    layout = dense_contact_array(5, 8)
    options = DecomposerOptions.for_quadruple_patterning().construction
    graph = build_decomposition_graph(layout, options=options).graph
    vertices, edges = graph.vertices(), graph.conflict_edges()

    if case == "components_below":
        pieces = benchmark(lambda: gomory_hu_tree(vertices, edges).components_below(4))
        benchmark.extra_info["pieces"] = len(pieces)
    else:
        tree_edges = benchmark(lambda: gomory_hu_tree(vertices, edges).edges)
        benchmark.extra_info["tree_edges"] = len(tree_edges)
    benchmark.extra_info["vertices"] = len(vertices)


def test_low_degree_peeling(benchmark):
    """Iterative non-critical vertex removal on a full circuit graph, in rank
    space (the reference of the compiled peel)."""
    benchmark.group = "graph-algorithms"
    layout = load_circuit("C7552", scale=bench_scale())
    options = DecomposerOptions.for_quadruple_patterning().construction
    graph = build_decomposition_graph(layout, options=options).graph

    flat = graph.to_arrays()

    # The CSR build is timed too: the reference peel pays it per component.
    alive, _, _, _, stack = benchmark(
        lambda: peel_low_degree_vertices(4, 2, CSRAdjacency(flat))
    )
    benchmark.extra_info["kernel_vertices"] = sum(alive)
    benchmark.extra_info["peeled"] = len(stack)


@pytest.mark.parametrize("size", [10, 20, 40])
def test_sdp_solver_scaling(benchmark, size):
    """Vector-program solve time vs component size (ring + chords)."""
    benchmark.group = "sdp-solver"
    edges = [(i, (i + 1) % size) for i in range(size)]
    edges += [(i, (i + 3) % size) for i in range(size)]
    edges = sorted({(min(u, v), max(u, v)) for u, v in edges if u != v})

    result = benchmark(lambda: VectorProgramSolver(4).solve(size, edges))
    benchmark.extra_info["vertices"] = size
    benchmark.extra_info["violation"] = float(result.constraint_violation)
