"""Flat-array graph form: roundtrips, frame robustness, memo invalidation."""

from __future__ import annotations

import pickle
from array import array

import pytest

from repro.graph import (
    DecompositionGraph,
    FlatFrameError,
    FlatGraph,
    VertexData,
)
from repro.graph.flat import graph_from_frame


def _rich_graph() -> DecompositionGraph:
    """Non-contiguous ids, every edge kind, non-default vertex data."""
    graph = DecompositionGraph()
    data = {
        3: VertexData(shape_id=7, fragment=0, weight=2),
        5: VertexData(shape_id=None, fragment=0, weight=1),
        8: VertexData(shape_id=2, fragment=1, weight=3),
        11: VertexData(shape_id=2, fragment=0, weight=1),
    }
    for vertex, vdata in data.items():
        graph.add_vertex(vertex, vdata)
    graph.add_conflict_edge(5, 8)
    graph.add_conflict_edge(3, 11)
    graph.add_stitch_edge(8, 11)
    graph.add_friend_edge(3, 5)
    return graph


def _assert_graphs_equal(a: DecompositionGraph, b: DecompositionGraph) -> None:
    assert a.vertices() == b.vertices()
    assert a.conflict_edges() == b.conflict_edges()
    assert a.stitch_edges() == b.stitch_edges()
    assert a.friend_edges() == b.friend_edges()
    for vertex in a.vertices():
        assert vars(a.vertex_data(vertex)) == vars(b.vertex_data(vertex))


class TestRoundTrip:
    def test_arrays_roundtrip_bit_for_bit(self):
        graph = _rich_graph()
        rebuilt = DecompositionGraph.from_arrays(graph.to_arrays())
        _assert_graphs_equal(graph, rebuilt)

    def test_bytes_roundtrip(self):
        graph = _rich_graph()
        frame = graph.to_arrays().to_bytes()
        flat, end = FlatGraph.from_bytes(frame)
        assert end == len(frame)
        _assert_graphs_equal(graph, flat.to_graph())

    def test_frame_size_is_exact(self):
        flat = _rich_graph().to_arrays()
        assert flat.frame_size() == len(flat.to_bytes())

    def test_empty_and_edgeless_graphs(self):
        empty = DecompositionGraph()
        flat, _ = FlatGraph.from_bytes(empty.to_arrays().to_bytes())
        assert flat.num_vertices == 0
        lone = DecompositionGraph.from_edges([], vertices=[4])
        rebuilt = DecompositionGraph.from_arrays(
            FlatGraph.from_bytes(lone.to_arrays().to_bytes())[0]
        )
        _assert_graphs_equal(lone, rebuilt)

    def test_decode_at_offset(self):
        graph = _rich_graph()
        frame = graph.to_arrays().to_bytes()
        padded = b"xxxx" + frame + b"tail"
        flat, end = FlatGraph.from_bytes(padded, offset=4)
        assert end == 4 + len(frame)
        _assert_graphs_equal(graph, flat.to_graph())

    def test_canonical_buffers_ignore_identity(self):
        """Translated copies of a component share the canonical buffers."""
        original = DecompositionGraph.from_edges(
            conflict_edges=[(0, 1), (1, 2)], stitch_edges=[(2, 3)]
        )
        shifted = DecompositionGraph.from_edges(
            conflict_edges=[(100, 101), (101, 102)], stitch_edges=[(102, 103)]
        )
        assert (
            original.to_arrays().canonical_buffers()
            == shifted.to_arrays().canonical_buffers()
        )
        assert original.to_arrays().vertex_ids != shifted.to_arrays().vertex_ids


class TestFrameErrors:
    def test_truncated_frame_rejected(self):
        frame = _rich_graph().to_arrays().to_bytes()
        for cut in (0, 3, len(frame) // 2, len(frame) - 1):
            with pytest.raises(FlatFrameError):
                FlatGraph.from_bytes(frame[:cut])

    def test_bad_version_rejected(self):
        frame = bytearray(_rich_graph().to_arrays().to_bytes())
        frame[0] = 99
        with pytest.raises(FlatFrameError, match="version"):
            FlatGraph.from_bytes(bytes(frame))

    def test_out_of_range_edge_rank_rejected(self):
        graph = DecompositionGraph.from_edges([(0, 1)])
        frame = bytearray(graph.to_arrays().to_bytes())
        # Last 8 bytes are the single conflict pair (friend/stitch are
        # empty): corrupt the second endpoint to an impossible rank.
        offset = len(frame) - 3 * 4 - 2 * 4 + 4
        frame[offset : offset + 4] = (2).to_bytes(4, "little")
        with pytest.raises(FlatFrameError, match="outside"):
            FlatGraph.from_bytes(bytes(frame))


    @pytest.mark.parametrize(
        "vertex_ids, conflict, message",
        [([0, 1], [1, 1], "self loop"), ([-4, 1], [0, 1], "non-negative")],
    )
    def test_graph_errors_surface_as_frame_errors(self, vertex_ids, conflict, message):
        flat = FlatGraph(
            array("q", vertex_ids), array("q", [0, 0]), array("I", [0, 0]),
            array("I", [1, 1]), array("I", conflict), array("I"), array("I"),
        )
        frame = flat.to_bytes()
        with pytest.raises(FlatFrameError, match=message):
            graph_from_frame(frame)

    @pytest.mark.parametrize(
        "vertex_ids, conflict",
        [
            ([0, 1, 2], [1, 2, 0, 1]),
            ([0, 1, 2], [0, 1, 0, 1]),
            ([2, 1, 0], [0, 1]),
            ([0, 1, 2], [1, 0]),
        ],
        ids=["unsorted-pairs", "duplicate-pair", "decreasing-ids", "reversed-pair"],
    )
    def test_non_canonical_frames_rejected(self, vertex_ids, conflict):
        """A frame ``flatten_graph`` could not have written is refused, not
        re-canonicalised: a view of it would hash and solve it as given."""
        flat = FlatGraph(
            array("q", vertex_ids), array("q", [0, 0, 0]), array("I", [0, 0, 0]),
            array("I", [1, 1, 1]), array("I", conflict), array("I"), array("I"),
        )
        assert not flat.is_canonical()
        with pytest.raises(FlatFrameError, match="not canonical"):
            graph_from_frame(flat.to_bytes())

    def test_decoded_frame_is_a_view(self):
        """A checked frame is wrapped, not rebuilt: no object graph yet."""
        graph = _rich_graph()
        view = graph_from_frame(graph.to_arrays().to_bytes())
        assert "_vertices" not in vars(view)
        assert view.to_arrays() == graph.to_arrays()
        _assert_graphs_equal(view, graph)


class TestMemoisation:
    def test_flat_form_is_cached_until_mutation(self):
        graph = _rich_graph()
        first = graph.to_arrays()
        assert graph.to_arrays() is first
        graph.add_conflict_edge(5, 11)
        second = graph.to_arrays()
        assert second is not first
        assert second.num_conflict_edges == first.num_conflict_edges + 1

    def test_every_mutator_invalidates(self):
        cases = [
            lambda g: g.add_vertex(99),
            lambda g: g.add_vertex(3, VertexData(weight=9)),
            lambda g: g.add_conflict_edge(3, 8),
            lambda g: g.add_stitch_edge(3, 8),
            lambda g: g.add_friend_edge(5, 11),
        ]
        for mutate in cases:
            graph = _rich_graph()
            snapshot = graph.to_arrays()
            mutate(graph)
            assert graph.to_arrays() is not snapshot

    def test_pickle_drops_memo_and_rebuilds(self):
        graph = _rich_graph()
        graph.to_arrays()  # populate the memo
        clone = pickle.loads(pickle.dumps(graph))
        _assert_graphs_equal(graph, clone)
        assert clone.to_arrays() == graph.to_arrays()
