"""Unit tests for the greedy coloring helpers."""

import random
from array import array

import pytest

from repro.core.evaluation import count_conflicts, count_stitches
from repro.core.greedy_coloring import GreedyColoring, greedy_color_merged, greedy_walk
from repro.core.kernels import set_kernel_mode
from repro.core.kernels.adjacency import CSRAdjacency
from repro.graph.decomposition_graph import DecompositionGraph
from repro.graph.simplify import build_merged_graph


def walk(graph, order, coloring, num_colors=4, alpha=0.1):
    """Run :func:`greedy_walk` over the vertices in ``order`` from the
    partial ``coloring``; the coloring it leaves (uncolored vertices out)."""
    flat = graph.to_arrays()
    ids = flat.vertex_ids.tolist()
    csr = CSRAdjacency(flat, include_friend=False)
    colors = array("i", [coloring.get(vertex, -1) for vertex in ids])
    ranks = array("i", [ids.index(vertex) for vertex in order])
    greedy_walk(
        len(ranks), num_colors, alpha, ranks,
        csr.conflict_start, csr.conflict_adj, csr.stitch_start, csr.stitch_adj,
        colors,
    )
    return {vertex: color for vertex, color in zip(ids, colors) if color >= 0}


class TestPickGreedyColor:
    def test_avoids_conflicts(self):
        g = DecompositionGraph.from_edges([(0, 1), (0, 2)])
        coloring = {1: 0, 2: 1}
        assert walk(g, [0], coloring)[0] == 2

    def test_prefers_stitch_match(self):
        g = DecompositionGraph.from_edges([(0, 1)], [(0, 2)])
        coloring = {1: 0, 2: 2}
        assert walk(g, [0], coloring)[0] == 2

    def test_breaks_ties_with_lowest_color(self):
        g = DecompositionGraph.from_edges([], vertices=[0])
        assert walk(g, [0], {})[0] == 0


class TestGreedyColorGraph:
    def test_path_needs_no_conflicts(self):
        g = DecompositionGraph.from_edges([(i, i + 1) for i in range(6)])
        coloring = GreedyColoring(4).color(g)
        assert count_conflicts(g, coloring) == 0

    def test_k4_conflict_free_with_four_colors(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        g = DecompositionGraph.from_edges(edges)
        coloring = GreedyColoring(4).color(g)
        assert count_conflicts(g, coloring) == 0
        assert len(set(coloring.values())) == 4

    def test_k5_has_exactly_one_conflict(self):
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        g = DecompositionGraph.from_edges(edges)
        coloring = GreedyColoring(4).color(g)
        assert count_conflicts(g, coloring) == 1

    def test_respects_explicit_order(self):
        g = DecompositionGraph.from_edges([(0, 1)])
        coloring = walk(g, [1, 0], {})
        assert coloring[1] == 0 and coloring[0] == 1

    def test_stitch_edges_pull_colors_together(self):
        g = DecompositionGraph.from_edges([], [(0, 1), (1, 2)])
        coloring = GreedyColoring(4).color(g)
        assert count_stitches(g, coloring) == 0


class TestGreedyColorMerged:
    def test_weighted_conflicts_respected(self):
        g = DecompositionGraph.from_edges([(0, 1), (0, 2), (1, 2)])
        merged = build_merged_graph(g, [])
        node_coloring = greedy_color_merged(merged, 4, 0.1)
        conflicts, stitches, _ = merged.coloring_cost(node_coloring, 0.1)
        assert conflicts == 0

    def test_empty_merged_graph(self):
        g = DecompositionGraph()
        merged = build_merged_graph(g, [])
        assert greedy_color_merged(merged, 4, 0.1) == {}

    @pytest.mark.parametrize("seed", range(8))
    def test_singleton_groups_match_greedy_color_graph(self, seed):
        """With no merging, the merged greedy must equal the graph greedy.

        Both walk vertices in (-conflict degree, vertex) order and charge
        ``conflicts + alpha * mismatched stitches`` per color, so a merged
        graph of singleton groups is the same problem — any divergence
        (ordering, int/float mixing) is a bug.  Regression for the PR 6 fix:
        the merged variant used to order by group size.  The graph greedy
        is ``GreedyColoring`` on its Python walk (kernel mode ``off``).
        """
        rng = random.Random(seed)
        n = rng.randint(2, 14)
        conflict, stitch = [], []
        for i in range(n):
            for j in range(i + 1, n):
                r = rng.random()
                if r < 0.3:
                    conflict.append((i, j))
                elif r < 0.45:
                    stitch.append((i, j))
        g = DecompositionGraph.from_edges(conflict, stitch, vertices=range(n))
        merged = build_merged_graph(g, [])
        via_merged = {
            merged.groups[node][0]: color
            for node, color in greedy_color_merged(merged, 4, 0.1).items()
        }
        previous = set_kernel_mode("off")
        try:
            assert via_merged == GreedyColoring(4).color(g)
        finally:
            set_kernel_mode(previous)


class TestGreedyColoringAlgorithm:
    def test_colors_every_vertex(self):
        g = DecompositionGraph.from_edges([(0, 1), (1, 2), (2, 3)], [(3, 4)])
        algorithm = GreedyColoring(4)
        coloring = algorithm.color(g)
        assert set(coloring) == set(g.vertices())
        assert all(0 <= c < 4 for c in coloring.values())

    def test_name(self):
        assert GreedyColoring(4).name == "greedy"
