"""Unit tests for the DecompositionGraph data structure."""

import pytest

from repro.errors import GraphError
from repro.graph.decomposition_graph import DecompositionGraph, VertexData


class TestVertices:
    def test_add_and_count(self):
        g = DecompositionGraph()
        g.add_vertex(0)
        g.add_vertex(5)
        assert g.num_vertices == 2
        assert g.vertices() == [0, 5]
        assert g.has_vertex(5) and not g.has_vertex(1)

    def test_add_is_idempotent(self):
        g = DecompositionGraph()
        g.add_vertex(0, VertexData(shape_id=7))
        g.add_vertex(0)
        assert g.vertex_data(0).shape_id == 7

    def test_add_with_new_data_overrides(self):
        g = DecompositionGraph()
        g.add_vertex(0, VertexData(shape_id=7))
        g.add_vertex(0, VertexData(shape_id=9))
        assert g.vertex_data(0).shape_id == 9

    def test_negative_vertex_rejected(self):
        with pytest.raises(GraphError):
            DecompositionGraph().add_vertex(-1)

class TestEdges:
    def test_conflict_edges(self):
        g = DecompositionGraph.from_edges([(0, 1), (1, 2)])
        assert g.num_conflict_edges == 2
        assert g.has_conflict_edge(1, 0)
        assert g.conflict_edges() == [(0, 1), (1, 2)]
        assert g.conflict_neighbors(1) == {0, 2}
        assert g.conflict_degree(1) == 2

    def test_stitch_edges(self):
        g = DecompositionGraph.from_edges([], [(0, 1)])
        assert g.num_stitch_edges == 1
        assert g.has_stitch_edge(1, 0)
        assert g.stitch_degree(0) == 1
        assert g.stitch_neighbors(1) == {0}

    def test_friend_edges(self):
        g = DecompositionGraph.from_edges([(0, 1)], vertices=[2])
        g.add_friend_edge(0, 2)
        assert g.has_friend_edge(2, 0)
        assert g.friend_neighbors(0) == {2}
        assert g.friend_edges() == [(0, 2)]

    def test_neighbors_unions_conflict_and_stitch(self):
        g = DecompositionGraph.from_edges([(0, 1)], [(0, 2)])
        assert g.neighbors(0) == {1, 2}

    def test_self_loop_rejected(self):
        g = DecompositionGraph()
        g.add_vertex(0)
        with pytest.raises(GraphError):
            g.add_conflict_edge(0, 0)

    def test_edge_to_unknown_vertex_rejected(self):
        g = DecompositionGraph()
        g.add_vertex(0)
        with pytest.raises(GraphError):
            g.add_conflict_edge(0, 1)

class TestBuilders:
    def test_subgraph_keeps_ids_and_edges(self):
        g = DecompositionGraph.from_edges([(0, 1), (1, 2), (2, 3)], [(0, 3)])
        sub = g.subgraph([0, 1, 3])
        assert sub.vertices() == [0, 1, 3]
        assert sub.conflict_edges() == [(0, 1)]
        assert sub.stitch_edges() == [(0, 3)]

    def test_subgraph_unknown_vertex_raises(self):
        g = DecompositionGraph.from_edges([(0, 1)])
        with pytest.raises(GraphError):
            g.subgraph([0, 5])

    def test_from_edges_with_isolated_vertices(self):
        g = DecompositionGraph.from_edges([(0, 1)], vertices=[5])
        assert g.vertices() == [0, 1, 5]

    def test_subgraph_reads_only_kept_adjacency(self):
        g = DecompositionGraph.from_edges(
            [(0, 1), (1, 2), (2, 3), (0, 3)], [(1, 3)], vertices=[9]
        )
        g.add_friend_edge(0, 2)
        sub = g.subgraph([0, 2, 3, 9])
        assert sub.conflict_edges() == [(0, 3), (2, 3)]
        assert sub.stitch_edges() == []
        assert sub.friend_edges() == [(0, 2)]
        assert sub.conflict_neighbors(3) == {0, 2}
        assert sub.vertices() == [0, 2, 3, 9]


class TestFromParts:
    def test_builds_every_relation(self):
        data = {v: VertexData(shape_id=v // 2, fragment=v % 2) for v in range(4)}
        g = DecompositionGraph.from_parts(data, [(0, 2), (3, 1)], [(0, 1)], [(2, 3)])
        assert g.conflict_edges() == [(0, 2), (1, 3)]
        assert g.stitch_edges() == [(0, 1)]
        assert g.friend_edges() == [(2, 3)]
        assert g.conflict_neighbors(1) == {3}
        assert g.vertex_data(3).fragment == 1

    def test_repeats_and_orientations_collapse(self):
        data = {0: VertexData(), 1: VertexData()}
        g = DecompositionGraph.from_parts(data, [(0, 1), (1, 0), (0, 1)])
        assert g.conflict_edges() == [(0, 1)]
        assert g.conflict_degree(0) == 1

    @pytest.mark.parametrize(
        "vertices, edges, message",
        [
            ([0, 1], [(0, 2)], "unknown vertex 2"),
            ([0, 1], [(1, 1)], "self loop"),
            ([-1, 0], [], "non-negative"),
        ],
    )
    def test_whole_list_checks(self, vertices, edges, message):
        data = {v: VertexData() for v in vertices}
        for relation in range(3):
            lists = [[], [], []]
            lists[relation] = edges
            with pytest.raises(GraphError, match=message):
                DecompositionGraph.from_parts(dict(data), *lists)
