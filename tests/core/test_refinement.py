"""Unit tests for greedy post-refinement."""

from array import array

from repro.core.evaluation import evaluate
from repro.core.kernels.adjacency import CSRAdjacency
from repro.core.refinement import refine_pass
from repro.graph.decomposition_graph import DecompositionGraph


def refine(graph, coloring, order=None, passes=1, num_colors=4, alpha=0.1):
    """Run ``passes`` :func:`refine_pass` calls over ``order`` (all vertices
    by default) from ``coloring``; the coloring left (uncolored out)."""
    flat = graph.to_arrays()
    ids = flat.vertex_ids.tolist()
    csr = CSRAdjacency(flat, include_friend=False)
    colors = array("i", [coloring.get(vertex, -1) for vertex in ids])
    ranks = array("i", [ids.index(vertex) for vertex in (ids if order is None else order)])
    for _ in range(passes):
        refine_pass(num_colors, alpha, ranks, csr, colors)
    return {vertex: color for vertex, color in zip(ids, colors) if color >= 0}


class TestLocalColorCost:
    def test_conflict_and_stitch_cost(self):
        """Vertex 0 costs ``1 + 0.1`` in color 2 and ``0.0`` in color 3."""
        g = DecompositionGraph.from_edges([(0, 1)], [(0, 2)])
        assert refine(g, {0: 2, 1: 2, 2: 3}, order=[0])[0] == 3
        assert refine(g, {0: 3, 1: 2, 2: 3}, order=[0])[0] == 3

    def test_uncolored_neighbours_ignored(self):
        g = DecompositionGraph.from_edges([(0, 1)])
        assert refine(g, {0: 0}, order=[0]) == {0: 0}


class TestRefineColoring:
    def test_fixes_obvious_conflict(self):
        g = DecompositionGraph.from_edges([(0, 1)])
        refined = refine(g, {0: 0, 1: 0})
        assert refined != {0: 0, 1: 0}
        assert refined[0] != refined[1]

    def test_never_degrades_cost(self):
        import numpy as np

        rng = np.random.default_rng(11)
        edges = [(i, j) for i in range(12) for j in range(i + 1, 12) if rng.random() < 0.3]
        g = DecompositionGraph.from_edges(edges, vertices=range(12))
        coloring = {v: int(rng.integers(0, 4)) for v in g.vertices()}
        before = evaluate(g, coloring, 0.1)
        after = evaluate(g, refine(g, coloring, passes=3), 0.1)
        assert after.cost <= before.cost

    def test_stops_when_stable(self):
        """A pass leaves a stable coloring unchanged."""
        g = DecompositionGraph.from_edges([(0, 1), (1, 2)])
        coloring = {0: 0, 1: 1, 2: 0}
        assert refine(g, coloring) == coloring

    def test_partial_colorings_are_tolerated(self):
        g = DecompositionGraph.from_edges([(0, 1), (1, 2)])
        coloring = refine(g, {0: 0, 1: 0}, order=[0, 1])  # vertex 2 uncolored
        assert 2 not in coloring
        assert coloring[0] != coloring[1]
