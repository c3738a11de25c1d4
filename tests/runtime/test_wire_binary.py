"""Binary component frames: lossless roundtrip, robustness, key pass-through."""

from __future__ import annotations

import pytest

from repro.bench import TABLE1_CIRCUITS, circuit_graph
from repro.core.options import AlgorithmOptions, DivisionOptions
from repro.graph.components import connected_components
from repro.graph.decomposition_graph import DecompositionGraph
from repro.runtime.component_io import ComponentWireError
from repro.runtime.hashing import canonical_component_key
from repro.runtime.wire_binary import (
    ComponentFrame,
    decode_components_frame,
    encode_components_frame,
    frame_size,
)

#: A small/medium/large spread of the Table 1 suite; the slow sweep below
#: covers the full set.
FAST_CIRCUITS = ["C432", "C6288", "S1488"]


def _components_of(circuit: str):
    graph = circuit_graph(circuit, 4).graph
    return [
        graph.subgraph(component) for component in connected_components(graph)
    ]


def _assert_graphs_equal(a: DecompositionGraph, b: DecompositionGraph) -> None:
    assert a.vertices() == b.vertices()
    assert a.conflict_edges() == b.conflict_edges()
    assert a.stitch_edges() == b.stitch_edges()
    assert a.friend_edges() == b.friend_edges()
    for vertex in a.vertices():
        assert vars(a.vertex_data(vertex)) == vars(b.vertex_data(vertex))


def _roundtrip_equivalence(subgraphs) -> None:
    keys = [
        canonical_component_key(
            graph, 4, "linear", AlgorithmOptions(), DivisionOptions()
        )
        for graph in subgraphs
    ]
    body = encode_components_frame(list(zip(keys, [g.to_arrays() for g in subgraphs])), 4, "linear")
    colors, algorithm, trace_id, frames = decode_components_frame(body)
    assert (colors, algorithm, trace_id) == (4, "linear", None)
    assert len(frames) == len(subgraphs)
    for graph, key, frame in zip(subgraphs, keys, frames):
        assert frame.error is None
        assert frame.key == key
        _assert_graphs_equal(frame.flat.to_graph(), graph)


class TestEquivalence:
    @pytest.mark.parametrize("circuit", FAST_CIRCUITS)
    def test_frame_roundtrip_matches_graph(self, circuit):
        subgraphs = _components_of(circuit)
        assert subgraphs
        _roundtrip_equivalence(subgraphs)

    @pytest.mark.slow
    @pytest.mark.parametrize("circuit", TABLE1_CIRCUITS)
    def test_frame_roundtrip_matches_graph_all_table1(self, circuit):
        subgraphs = _components_of(circuit)
        assert subgraphs
        _roundtrip_equivalence(subgraphs)

    def test_frame_size_budget_is_exact(self):
        graph = DecompositionGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        flat = graph.to_arrays()
        key = "k" * 64
        body_one = encode_components_frame([(key, flat)], 4, "linear")
        body_none = encode_components_frame([], 4, "linear")
        assert len(body_one) - len(body_none) == frame_size(flat, key)


class TestFrameVersions:
    def _entries(self):
        graph = DecompositionGraph.from_edges([(0, 1), (1, 2)])
        return [("k" * 64, graph.to_arrays())]

    def test_untraced_frame_has_empty_trace_field(self):
        """One wire: an untraced request is a v2 frame with an empty trace."""
        body = encode_components_frame(self._entries(), 4, "linear")
        assert body[4] == 2
        traced = encode_components_frame(
            self._entries(), 4, "linear", trace_id="deadbeefcafef00d"
        )
        assert len(traced) - len(body) == len("deadbeefcafef00d")
        _, _, trace_id, frames = decode_components_frame(body)
        assert trace_id is None and len(frames) == 1

    @pytest.mark.parametrize(
        "trace_id, trace_field",
        [(None, b"\x00"), ("00ff", b"\x0400ff")],
        ids=["untraced", "traced"],
    )
    def test_frame_bytes_are_pinned(self, trace_id, trace_field):
        """The v2 layout byte for byte: changing it needs a version bump."""
        graph = DecompositionGraph.from_edges([(0, 1)], [(1, 2)])
        graph_frame = bytes.fromhex(
            "01" "03000000"  # flat-graph frame version 1, three vertices
            + "0000000000000000" "0100000000000000" "0200000000000000"  # ids
            + "ff" * 24  # shape ids: none
            + "00000000" * 3  # fragments
            + "01000000" * 3  # weights
            + "01000000" "00000000" "01000000"  # one conflict edge, ranks 0-1
            + "01000000" "01000000" "02000000"  # one stitch edge, ranks 1-2
            + "00000000"  # no friend edges
        )
        expected = (
            b"RPC2" b"\x02" b"\x04\x00\x00\x00"  # magic, version 2, four colors
            + b"\x06linear"
            + trace_field
            + b"\x01\x00\x00\x00"  # one component
            + b"\x02ab" + len(graph_frame).to_bytes(4, "little") + graph_frame
        )
        body = encode_components_frame(
            [("ab", graph.to_arrays())], 4, "linear", trace_id=trace_id
        )
        assert body == expected
        assert decode_components_frame(expected)[2] == trace_id

    def test_traced_frame_roundtrips_v2(self):
        body = encode_components_frame(
            self._entries(), 4, "linear", trace_id="deadbeefcafef00d"
        )
        assert body[4] == 2
        colors, algorithm, trace_id, frames = decode_components_frame(body)
        assert (colors, algorithm, trace_id) == (4, "linear", "deadbeefcafef00d")
        assert frames[0].key == "k" * 64

    @pytest.mark.parametrize("version", [1, 3])
    def test_other_versions_are_refused(self, version):
        """No negotiation: a v1 (pre-trace) or future frame is a 400."""
        body = bytearray(encode_components_frame(self._entries(), 4, "linear"))
        body[4] = version
        with pytest.raises(
            ComponentWireError,
            match=f"unsupported components frame version {version} "
            r"\(this node speaks version 2\)",
        ):
            decode_components_frame(bytes(body))

    def test_overlong_trace_id_rejected_at_encode(self):
        with pytest.raises(ComponentWireError):
            encode_components_frame(
                self._entries(), 4, "linear", trace_id="x" * 300
            )


class TestMalformedFrames:
    def _one_entry_body(self):
        graph = DecompositionGraph.from_edges([(0, 1), (1, 2)])
        return encode_components_frame([(None, graph.to_arrays())], 4, "linear")

    def test_bad_magic_rejected(self):
        body = bytearray(self._one_entry_body())
        body[:4] = b"XXXX"
        with pytest.raises(ComponentWireError, match="magic"):
            decode_components_frame(bytes(body))

    def test_bad_version_rejected(self):
        body = bytearray(self._one_entry_body())
        body[4] = 200
        with pytest.raises(ComponentWireError, match="version"):
            decode_components_frame(bytes(body))

    def test_truncations_rejected(self):
        body = self._one_entry_body()
        for cut in (0, 2, 9, len(body) // 2, len(body) - 1):
            with pytest.raises(ComponentWireError):
                decode_components_frame(body[:cut])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ComponentWireError, match="trailing"):
            decode_components_frame(self._one_entry_body() + b"junk")

    def test_bad_graph_frame_fails_only_its_entry(self):
        """Per-entry containment: sibling components still decode."""
        good = DecompositionGraph.from_edges([(0, 1), (1, 2)])
        bad = DecompositionGraph.from_edges([(0, 1)])
        entries = [(None, good.to_arrays()), (None, bad.to_arrays()), (None, good.to_arrays())]
        body = bytearray(encode_components_frame(entries, 4, "linear"))
        # Corrupt the middle entry's graph-frame version byte: it sits right
        # after the good entry's frame plus the middle entry's own framing.
        good_frame = good.to_arrays().to_bytes()
        envelope = len(encode_components_frame([], 4, "linear"))
        middle_graph_start = envelope + (1 + 4 + len(good_frame)) + (1 + 4)
        assert body[middle_graph_start] == 1  # flat frame version
        body[middle_graph_start] = 77
        _, _, _, frames = decode_components_frame(bytes(body))
        assert [frame.error is None for frame in frames] == [True, False, True]
        assert "version" in frames[1].error
        assert isinstance(frames[0], ComponentFrame) and frames[0].flat is not None


class TestComponentJobGraph:
    """A worker job's graph comes only from its ``graph_frame`` bytes."""

    def test_frame_roundtrips_to_the_graph(self):
        from repro.runtime.component_io import job_graph

        graph = DecompositionGraph.from_edges([(0, 1), (1, 2)], [(2, 3)])
        rebuilt = job_graph({"graph_frame": graph.to_arrays().to_bytes()})
        _assert_graphs_equal(rebuilt, graph)

    @pytest.mark.parametrize("job", [{}, {"graph_frame": b"junk"}], ids=["missing", "corrupt"])
    def test_bad_job_frame_is_a_wire_error(self, job):
        from repro.runtime.component_io import job_graph

        with pytest.raises(ComponentWireError, match="graph_frame"):
            job_graph(job)
