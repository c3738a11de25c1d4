"""The server's binary ``POST /components`` path: equivalence and rejection."""

from __future__ import annotations

import http.client
import json

import pytest

from repro.bench.factory import repeated_cell_layout, wire_row_layout
from repro.core.options import AlgorithmOptions, DecomposerOptions, DivisionOptions
from repro.graph.components import connected_components
from repro.graph.construction import build_decomposition_graph
from repro.graph.decomposition_graph import DecompositionGraph
from repro.runtime.component_io import solve_component_job
from repro.runtime.hashing import canonical_component_key
from repro.runtime.wire_binary import encode_components_frame
from repro.service import ServerConfig, ServerThread, ServiceClient, ServiceError

pytestmark = pytest.mark.service


def _subgraphs(layout, layer="contact"):
    options = DecomposerOptions.for_quadruple_patterning("linear")
    construction = build_decomposition_graph(
        layout, layer=layer, options=options.construction
    )
    return [
        construction.graph.subgraph(component)
        for component in connected_components(construction.graph)
    ]


def _direct_solve(graph, colors=4, algorithm="linear"):
    """Ground truth: the exact worker solve path, cacheless."""
    return solve_component_job(
        {
            "kind": "component",
            "graph_frame": graph.to_arrays().to_bytes(),
            "colors": colors,
            "algorithm": algorithm,
        },
        None,
    )


def _entries(subgraphs, with_keys=True):
    out = []
    for graph in subgraphs:
        key = None
        if with_keys:
            key = canonical_component_key(
                graph, 4, "linear", AlgorithmOptions(), DivisionOptions()
            )
        out.append((key, graph.to_arrays()))
    return out


@pytest.fixture(scope="module")
def inline_server():
    config = ServerConfig(port=0, workers=1, force_inline_pool=True)
    with ServerThread(config) as (host, port):
        client = ServiceClient(host, port)
        client.wait_until_healthy()
        yield client


class TestBinaryComponents:
    def test_binary_answers_match_direct_solve(self, inline_server):
        subgraphs = _subgraphs(repeated_cell_layout(copies=3, cell_pitch=1000))
        assert len(subgraphs) >= 2
        binary = inline_server.components_binary(
            encode_components_frame(_entries(subgraphs), 4, "linear")
        )
        assert len(binary["results"]) == len(subgraphs)
        for entry, graph in zip(binary["results"], subgraphs):
            expected = _direct_solve(graph)
            assert entry["coloring"] == expected["coloring"]
            assert entry["key"] == expected["key"]
            assert entry["report"] == expected["report"]

    def test_keyless_binary_entries_are_hashed_server_side(self, inline_server):
        subgraphs = _subgraphs(wire_row_layout(num_wires=3, wire_length=400), "metal1")
        response = inline_server.components_binary(
            encode_components_frame(_entries(subgraphs, with_keys=False), 4, "linear")
        )
        expected = [
            canonical_component_key(
                graph, 4, "linear", AlgorithmOptions(), DivisionOptions()
            )
            for graph in subgraphs
        ]
        assert [entry["key"] for entry in response["results"]] == expected

    def test_malformed_envelope_is_400(self, inline_server):
        with pytest.raises(ServiceError) as excinfo:
            inline_server.components_binary(b"RPC2 this is not a frame")
        assert excinfo.value.status == 400

    def test_empty_body_is_400(self, inline_server):
        with pytest.raises(ServiceError) as excinfo:
            inline_server.components_binary(b"")
        assert excinfo.value.status == 400

    def test_malformed_graph_frame_gets_error_envelope(self, inline_server):
        """A corrupt graph inside a sound envelope fails only its entry."""
        subgraphs = _subgraphs(repeated_cell_layout(copies=2, cell_pitch=1000))
        good = subgraphs[0].to_arrays()
        body = bytearray(
            encode_components_frame([(None, good), (None, good)], 4, "linear")
        )
        # Second entry's graph frame starts after the envelope and the first
        # entry (1-byte key length + 4-byte frame length + frame), plus its
        # own 5-byte framing; smash the flat-frame version byte.
        envelope = len(encode_components_frame([], 4, "linear"))
        start = envelope + (1 + 4 + good.frame_size()) + (1 + 4)
        assert body[start] == 1
        body[start] = 42
        response = inline_server.components_binary(bytes(body))
        results = response["results"]
        assert len(results) == 2
        assert "coloring" in results[0]
        assert results[1]["error"]["status"] == 400
        assert "version" in results[1]["error"]["message"]

    def test_non_ascii_key_bytes_are_400(self, inline_server):
        graph = DecompositionGraph.from_edges([(0, 1), (1, 2)])
        body = bytearray(
            encode_components_frame([("k" * 8, graph.to_arrays())], 4, "linear")
        )
        envelope = len(encode_components_frame([], 4, "linear"))
        assert body[envelope] == 8  # key length prefix
        body[envelope + 1] = 0xFF  # corrupt a key byte to non-ascii
        with pytest.raises(ServiceError) as excinfo:
            inline_server.components_binary(bytes(body))
        assert excinfo.value.status == 400
        assert "ascii" in str(excinfo.value)

    def test_mismatched_key_cannot_poison_the_cache(self, tmp_path):
        """A wrong shipped key must never store a solution under that key."""
        config = ServerConfig(
            port=0,
            workers=1,
            force_inline_pool=True,
            cache_db=str(tmp_path / "cells.db"),
        )
        triangle = DecompositionGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        path = DecompositionGraph.from_edges([(0, 1), (1, 2)])
        key_of = lambda g: canonical_component_key(
            g, 4, "linear", AlgorithmOptions(), DivisionOptions()
        )
        with ServerThread(config) as (host, port):
            client = ServiceClient(host, port)
            client.wait_until_healthy()
            # Lie: ship the triangle labelled with the path's key.
            poisoned = client.components_binary(
                encode_components_frame(
                    [(key_of(path), triangle.to_arrays())], 4, "linear"
                )
            )
            assert "coloring" in poisoned["results"][0]
            # The path must now solve correctly — its key slot untouched.
            honest = client.components_binary(
                encode_components_frame([(key_of(path), path.to_arrays())], 4, "linear")
            )
            entry = honest["results"][0]
            assert entry["key"] == key_of(path)
            assert entry["coloring"] == _direct_solve(path)["coloring"]

    def test_json_body_is_refused_with_415(self, inline_server):
        """One wire: the node names the frame it takes instead of guessing."""
        connection = http.client.HTTPConnection(
            inline_server.host, inline_server.port, timeout=30
        )
        try:
            connection.request(
                "POST",
                "/components",
                body=json.dumps({"components": [], "colors": 4}),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 415
        assert "application/x-repro-components-v2" in body["error"]["message"]

    def test_v1_frame_is_refused_naming_both_versions(self, inline_server):
        graph = DecompositionGraph.from_edges([(0, 1), (1, 2)])
        body = bytearray(
            encode_components_frame([(None, graph.to_arrays())], 4, "linear")
        )
        body[4] = 1
        with pytest.raises(ServiceError) as excinfo:
            inline_server.components_binary(bytes(body))
        assert excinfo.value.status == 400
        assert "version 1" in str(excinfo.value)
        assert "speaks version 2" in str(excinfo.value)

    def test_single_component_endpoint_is_gone(self, inline_server):
        connection = http.client.HTTPConnection(
            inline_server.host, inline_server.port, timeout=30
        )
        try:
            connection.request(
                "POST",
                "/component",
                body=b"{}",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            response.read()
        finally:
            connection.close()
        assert response.status == 404

    def test_healthz_reports_frame_version(self, inline_server):
        from repro.runtime.wire_binary import FRAME_VERSION

        assert inline_server.healthz()["components_frame"] == FRAME_VERSION


class TestProcessPoolTransport:
    def test_process_pool_ships_inline_frames(self):
        """Process-mode workers get each graph frame inline and answer it."""
        config = ServerConfig(port=0, workers=2)
        with ServerThread(config) as (host, port):
            client = ServiceClient(host, port)
            client.wait_until_healthy()
            if client.healthz()["mode"] != "process":
                pytest.skip("no-fork sandbox: process pool unavailable")
            subgraphs = _subgraphs(repeated_cell_layout(copies=3, cell_pitch=1000))
            response = client.components_binary(
                encode_components_frame(_entries(subgraphs), 4, "linear")
            )
            for entry, graph in zip(response["results"], subgraphs):
                assert entry["coloring"] == _direct_solve(graph)["coloring"]
            pool = client.stats()["pool"]
            assert pool["completed"] >= len(subgraphs)
            assert "shm_jobs" not in pool
