"""Unit tests for low-degree peeling and merged graphs."""

from array import array

import pytest

from repro.core.kernels.adjacency import CSRAdjacency
from repro.errors import GraphError
from repro.graph.decomposition_graph import DecompositionGraph
from repro.graph.simplify import (
    build_merged_graph,
    peel_low_degree_vertices,
    reinsert_peeled_vertices,
)


def peel(graph, num_colors):
    """``(kernel ids, removal stack ids)`` of the rank-space peel."""
    flat = graph.to_arrays()
    alive, _, _, _, stack = peel_low_degree_vertices(num_colors, 2, CSRAdjacency(flat))
    ids = flat.vertex_ids
    return [ids[r] for r in range(flat.num_vertices) if alive[r]], [ids[r] for r in stack]


def reinsert(graph, coloring, stack, num_colors):
    """Reinsert the ids on ``stack`` into ``coloring`` (in place)."""
    flat = graph.to_arrays()
    ids = flat.vertex_ids.tolist()
    colors = array("i", [coloring.get(vertex, -1) for vertex in ids])
    ranks = [ids.index(vertex) for vertex in stack]
    reinsert_peeled_vertices(num_colors, ranks, CSRAdjacency(flat), colors)
    coloring.update((ids[rank], colors[rank]) for rank in reversed(ranks))
    return coloring


def legal_color(graph, vertex, coloring, num_colors):
    """The color a one-vertex reinsertion gives ``vertex``."""
    return reinsert(graph, dict(coloring), [vertex], num_colors)[vertex]


class TestPeeling:
    def test_path_peels_completely(self):
        g = DecompositionGraph.from_edges([(i, i + 1) for i in range(5)])
        kernel, stack = peel(g, num_colors=4)
        assert kernel == []
        assert sorted(stack) == g.vertices()

    def test_k5_core_survives(self):
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        # attach a pendant vertex to the K5
        edges.append((0, 5))
        g = DecompositionGraph.from_edges(edges)
        kernel, stack = peel(g, num_colors=4)
        assert kernel == [0, 1, 2, 3, 4]
        assert stack == [5]

    def test_peeling_cascades(self):
        """Removing a leaf can make its neighbour removable too."""
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]  # K5
        edges += [(4, 5), (5, 6), (5, 7), (5, 8)]  # tree hanging off the K5
        g = DecompositionGraph.from_edges(edges)
        kernel, stack = peel(g, num_colors=4)
        assert kernel == [0, 1, 2, 3, 4]
        assert sorted(stack) == [5, 6, 7, 8]

    def test_stitch_degree_delays_removal(self):
        """A vertex with two stitch edges only becomes removable after its
        stitch neighbours have been peeled (the dstit < 2 condition)."""
        g = DecompositionGraph.from_edges(
            conflict_edges=[(0, 3)], stitch_edges=[(0, 1), (0, 2)]
        )
        kernel, stack = peel(g, num_colors=4)
        assert kernel == []
        assert stack.index(0) > min(stack.index(1), stack.index(2))

    def test_original_graph_untouched(self):
        g = DecompositionGraph.from_edges([(0, 1), (1, 2)])
        csr = CSRAdjacency(g.to_arrays())
        before = [array("i", csr.conflict_start), array("i", csr.conflict_adj)]
        peel_low_degree_vertices(4, 2, csr)
        assert [csr.conflict_start, csr.conflict_adj] == before
        assert g.num_vertices == 3
        assert g.num_conflict_edges == 2

    def test_threshold_two_colors(self):
        g = DecompositionGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        kernel, stack = peel(g, num_colors=2)
        assert kernel == [0, 1, 2]
        assert stack == []

    def test_degrees_count_live_neighbours(self):
        """A peeled rank keeps its degrees at removal; a live one loses its
        peeled neighbours, color-friendly ones included."""
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(0, 5)]
        g = DecompositionGraph.from_edges(edges, [(4, 5)])
        g.add_friend_edge(1, 5)
        alive, cdeg, sdeg, fdeg, stack = peel_low_degree_vertices(
            4, 2, CSRAdjacency(g.to_arrays())
        )
        assert (alive.typecode, cdeg.typecode, stack.typecode) == ("b", "i", "i")
        assert list(alive) == [1, 1, 1, 1, 1, 0] and list(stack) == [5]
        assert list(cdeg) == [4, 4, 4, 4, 4, 1]
        assert list(sdeg) == [0, 0, 0, 0, 0, 1]
        assert list(fdeg) == [0, 0, 0, 0, 0, 1]


class TestLegalColor:
    def test_avoids_conflict_neighbours(self):
        g = DecompositionGraph.from_edges([(0, 1), (0, 2), (0, 3)])
        coloring = {1: 0, 2: 1, 3: 2}
        assert legal_color(g, 0, coloring, 4) == 3

    def test_prefers_stitch_neighbour_color(self):
        g = DecompositionGraph.from_edges(
            conflict_edges=[(0, 1)], stitch_edges=[(0, 2)]
        )
        coloring = {1: 0, 2: 3}
        assert legal_color(g, 0, coloring, 4) == 3

    def test_falls_back_to_least_damaging(self):
        """With every color blocked, the least-used conflicting color is picked."""
        g = DecompositionGraph.from_edges([(0, i) for i in range(1, 6)])
        coloring = {1: 0, 2: 1, 3: 2, 4: 3, 5: 3}
        assert legal_color(g, 0, coloring, 4) in (0, 1, 2)


class TestReinsert:
    def test_reinserted_vertices_get_conflict_free_colors(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]  # K4
        edges += [(0, 4), (4, 5)]
        g = DecompositionGraph.from_edges(edges)
        kernel, stack = peel(g, 4)
        coloring = {v: i for i, v in enumerate(kernel)}
        reinsert(g, coloring, stack, 4)
        assert set(coloring) == set(g.vertices())
        for u, v in g.conflict_edges():
            assert coloring[u] != coloring[v]


class TestMergedGraph:
    def test_no_merges_is_identity(self):
        g = DecompositionGraph.from_edges([(0, 1), (1, 2)], [(2, 3)])
        merged = build_merged_graph(g, [])
        assert merged.num_nodes == 4
        assert merged.internal_conflicts == 0
        assert sum(merged.conflict_weight.values()) == 2
        assert sum(merged.stitch_weight.values()) == 1

    def test_merge_aggregates_weights(self):
        #  0-1 conflict, 0-2 conflict, 1-2 conflict; merge 1 and 2.
        g = DecompositionGraph.from_edges([(0, 1), (0, 2), (1, 2)])
        merged = build_merged_graph(g, [(1, 2)])
        assert merged.num_nodes == 2
        assert merged.internal_conflicts == 1  # the 1-2 edge is now internal
        assert list(merged.conflict_weight.values()) == [2]

    def test_merge_unknown_vertex_rejected(self):
        g = DecompositionGraph.from_edges([(0, 1)])
        with pytest.raises(GraphError):
            build_merged_graph(g, [(0, 9)])

    def test_expand_coloring(self):
        g = DecompositionGraph.from_edges([(0, 1), (2, 3)])
        merged = build_merged_graph(g, [(0, 2), (1, 3)])
        node_of = merged.group_of()
        node_coloring = {node_of[0]: 1, node_of[1]: 2}
        expanded = merged.expand_coloring(node_coloring)
        assert expanded == {0: 1, 2: 1, 1: 2, 3: 2}

    def test_coloring_cost(self):
        g = DecompositionGraph.from_edges([(0, 1)], [(1, 2)])
        merged = build_merged_graph(g, [])
        node_of = merged.group_of()
        same = {node_of[0]: 0, node_of[1]: 0, node_of[2]: 0}
        conflicts, stitches, cost = merged.coloring_cost(same, alpha=0.1)
        assert (conflicts, stitches) == (1, 0)
        ok = {node_of[0]: 0, node_of[1]: 1, node_of[2]: 1}
        conflicts, stitches, _ = merged.coloring_cost(ok, alpha=0.1)
        assert (conflicts, stitches) == (0, 0)
