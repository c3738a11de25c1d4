"""The v2 packed-array hashing scheme: golden pins, memoisation, v1 isolation.

The canonical component key is load-bearing far beyond one process: it is
the SQLite cache's primary key, the coordinator's routing hash, and the
field a v2 node trusts instead of re-hashing.  These tests pin the digest
bytes themselves (any accidental change to the payload layout must show up
as a deliberate golden update plus a ``_SCHEMA_VERSION`` bump), verify the
hash-once memoisation contract, and prove v2 keys can never collide with
the retired v1 (repr-string) keys.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.options import AlgorithmOptions, DivisionOptions
from repro.graph.decomposition_graph import DecompositionGraph
from repro.runtime.hashing import (
    _SCHEMA_VERSION,
    canonical_component_key,
    options_fingerprint,
)

#: Pinned v2 digests.  If a change to the flat-array layout or the hash
#: payload is *intentional*, bump ``_SCHEMA_VERSION`` (and the SQLite cache
#: schema) and re-pin; silent drift here silently severs every persisted
#: cache and every mixed-version cluster.
GOLDEN_KEYS = {
    "triangle-linear-K4": "9a728af5662ef47dd4950a6a0c4bf57156b912d601d4dfa4e6848728753e4c5e",
    "stitch-sdp-K4": "e4c84186380f5acd04af1d398fe2d0557f9e6445f7c6c337f4fff10c5d95ab46",
    "k4-greedy-K5": "3e0caff8e9d51ac2ea806a74ba8e2deeb8dc2fb1fe610c0948ac6002bd97bb7b",
}


def _golden_graphs():
    triangle = DecompositionGraph.from_edges([(0, 1), (1, 2), (0, 2)])
    stitch = DecompositionGraph.from_edges(
        conflict_edges=[(0, 2), (1, 2)], stitch_edges=[(0, 1)]
    )
    k4 = DecompositionGraph.from_edges(
        [(i, j) for i in range(4) for j in range(i + 1, 4)]
    )
    return {
        "triangle-linear-K4": (triangle, 4, "linear"),
        "stitch-sdp-K4": (stitch, 4, "sdp-backtrack"),
        "k4-greedy-K5": (k4, 5, "greedy"),
    }


def _key(graph, num_colors=4, algorithm="linear"):
    return canonical_component_key(
        graph, num_colors, algorithm, AlgorithmOptions(), DivisionOptions()
    )


def _v1_key(graph, num_colors, algorithm) -> str:
    """The retired v1 scheme, verbatim: repr-built payload string, SHA-256."""
    rank = {vertex: index for index, vertex in enumerate(graph.vertices())}

    def relabel(edges):
        out = []
        for u, v in edges:
            ru, rv = rank[u], rank[v]
            out.append((ru, rv) if ru <= rv else (rv, ru))
        out.sort()
        return out

    weights = tuple(graph.vertex_data(v).weight for v in graph.vertices())
    payload = "|".join(
        [
            "v1",
            f"n={graph.num_vertices}",
            f"K={num_colors}",
            f"alg={algorithm}",
            options_fingerprint(AlgorithmOptions(), DivisionOptions()),
            f"w={weights}",
            f"ce={relabel(graph.conflict_edges())}",
            f"se={relabel(graph.stitch_edges())}",
            f"fe={relabel(graph.friend_edges())}",
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TestGoldenKeys:
    def test_schema_version_is_5(self):
        assert _SCHEMA_VERSION == 5

    @pytest.mark.parametrize("name", sorted(GOLDEN_KEYS))
    def test_keys_pinned(self, name):
        graph, num_colors, algorithm = _golden_graphs()[name]
        assert _key(graph, num_colors, algorithm) == GOLDEN_KEYS[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_KEYS))
    def test_v2_never_collides_with_v1(self, name):
        """Old SQLite rows keyed by the v1 scheme are unreachable under v2."""
        graph, num_colors, algorithm = _golden_graphs()[name]
        assert _key(graph, num_colors, algorithm) != _v1_key(
            graph, num_colors, algorithm
        )

    def test_key_stable_across_flat_rebuild(self):
        """The key must not depend on *when* the flat form was materialised."""
        graph, num_colors, algorithm = _golden_graphs()["triangle-linear-K4"]
        rebuilt = DecompositionGraph.from_arrays(graph.to_arrays())
        assert _key(rebuilt, num_colors, algorithm) == GOLDEN_KEYS[
            "triangle-linear-K4"
        ]


class TestMemoisation:
    def test_key_computed_once_per_configuration(self, monkeypatch):
        import repro.runtime.hashing as hashing

        calls = {"n": 0}
        real = hashing.hashlib.sha256

        def counting_sha256(*args):
            calls["n"] += 1
            return real(*args)

        monkeypatch.setattr(hashing.hashlib, "sha256", counting_sha256)
        graph = DecompositionGraph.from_edges([(0, 1), (1, 2)])
        first = _key(graph)
        for _ in range(5):  # routing, dedup, cache lookup, replays, ...
            assert _key(graph) == first
        assert calls["n"] == 1

    def test_distinct_configurations_memoise_independently(self):
        graph = DecompositionGraph.from_edges([(0, 1), (1, 2)])
        assert _key(graph, 4, "linear") != _key(graph, 5, "linear")
        assert _key(graph, 4, "linear") == _key(graph, 4, "linear")
        assert len(graph._key_memo) == 2

    def test_mutation_invalidates_memoised_key(self):
        """Hash-then-mutate must re-hash — a stale key would poison caches."""
        graph = DecompositionGraph.from_edges([(0, 1), (1, 2)])
        before = _key(graph)
        graph.add_conflict_edge(0, 2)
        after = _key(graph)
        assert after != before
        fresh = DecompositionGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        assert after == _key(fresh)

    def test_vertex_data_replacement_invalidates(self):
        from repro.graph.decomposition_graph import VertexData

        graph = DecompositionGraph.from_edges([(0, 1)])
        before = _key(graph)
        graph.add_vertex(0, VertexData(weight=5))
        assert _key(graph) != before
