"""Tests for the SQLite-backed component cache.

Covers the backend contract (replay equivalence with the in-memory LRU),
durability across reopen, cross-process sharing, corruption recovery,
schema-version invalidation, LRU eviction and the persistent counters the
server's ``/stats`` endpoint reports.
"""

from __future__ import annotations

import json
import multiprocessing
import sqlite3

import pytest

from repro.bench.factory import circuit_graph
from repro.core.division import DivisionReport
from repro.core.options import AlgorithmOptions, DivisionOptions
from repro.graph.components import connected_components
from repro.graph.decomposition_graph import DecompositionGraph
from repro.runtime import (
    ComponentCache,
    InMemoryBackend,
    SqliteBackend,
    canonical_component_key,
    open_cache,
)
from repro.runtime.cache import ComponentSolve
from repro.runtime.sqlite_cache import (
    SCHEMA_VERSION,
    _decode_record,
    _encode_record,
    read_persistent_stats,
)


def _path_graph(offset: int = 0, length: int = 3) -> DecompositionGraph:
    """Conflict path; ``offset`` shifts ids (same canonical key), ``length``
    changes the structure (different canonical key)."""
    return DecompositionGraph.from_edges(
        [(offset + i, offset + i + 1) for i in range(length)]
    )


def _key_and_solve(graph: DecompositionGraph, **byproducts):
    key = canonical_component_key(
        graph, 4, "linear", AlgorithmOptions(), DivisionOptions()
    )
    ranks = [rank % 4 for rank in range(graph.num_vertices)]
    return key, ComponentSolve(key, ranks, **byproducts)


def _coloring(graph: DecompositionGraph):
    """The id-space coloring :func:`_key_and_solve`'s ranks replay to."""
    return {vertex: rank % 4 for rank, vertex in enumerate(graph.vertices())}


@pytest.fixture
def db_path(tmp_path):
    return tmp_path / "components.db"


class TestRoundTrip:
    def test_lookup_matches_in_memory_backend(self, db_path):
        """Same store/lookup sequence, same replayed records as the LRU."""
        graph = _path_graph()
        shifted = _path_graph(offset=100)  # isomorphic, different vertex ids
        report = DivisionReport(peeled_vertices=2, colored_pieces=1)
        key, solve = _key_and_solve(graph, report=report, solver_timeouts=1)

        memory = ComponentCache(backend=InMemoryBackend())
        sqlite_cache = ComponentCache(backend=SqliteBackend(db_path))
        for cache in (memory, sqlite_cache):
            cache.store(key, graph, solve)
        mem_rec = memory.lookup(key, shifted)
        sql_rec = sqlite_cache.lookup(key, shifted)
        assert sql_rec is not None
        assert sql_rec.coloring_for(shifted) == mem_rec.coloring_for(shifted)
        assert sql_rec.report == mem_rec.report
        assert sql_rec.solver_timeouts == mem_rec.solver_timeouts == 1
        sqlite_cache.close()

    def test_miss_returns_none_and_counts(self, db_path):
        cache = ComponentCache(backend=SqliteBackend(db_path))
        assert cache.lookup("no-such-key", _path_graph()) is None
        assert cache.stats.misses == 1
        assert read_persistent_stats(db_path)["misses"] == 1
        cache.close()

    def test_persists_across_reopen(self, db_path):
        graph = _path_graph()
        key, solve = _key_and_solve(graph)
        first = ComponentCache(backend=SqliteBackend(db_path))
        first.store(key, graph, solve)
        first.close()

        second = ComponentCache(backend=SqliteBackend(db_path))
        record = second.lookup(key, graph)
        assert record is not None
        assert record.coloring_for(graph) == _coloring(graph)
        second.close()


def _child_store(db_path: str, length: int) -> None:
    """Child-process body: solve-and-store one entry into the shared DB."""
    graph = _path_graph(length=length)
    key, solve = _key_and_solve(graph)
    cache = open_cache(db_path=db_path)
    cache.store(key, graph, solve)
    cache.close()


class TestCrossProcess:
    def test_two_processes_share_entries(self, db_path):
        """An entry stored by another process is a hit here, and vice versa."""
        graph = _path_graph()
        key, solve = _key_and_solve(graph)
        parent = open_cache(db_path=str(db_path))
        parent.store(key, graph, solve)

        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_child_store, args=(str(db_path), 7))
        child.start()
        child.join(30)
        assert child.exitcode == 0

        # Parent sees the child's (structurally different) entry...
        child_graph = _path_graph(length=7)
        child_key, _ = _key_and_solve(child_graph)
        record = parent.lookup(child_key, child_graph)
        assert record is not None
        assert record.coloring_for(child_graph) == _coloring(child_graph)
        # ...and the persistent counters aggregated both processes' stores.
        assert read_persistent_stats(db_path)["stores"] == 2
        parent.close()


class TestRecovery:
    def test_garbage_file_is_rebuilt(self, db_path):
        db_path.write_bytes(b"this is definitely not a sqlite database" * 32)
        cache = ComponentCache(backend=SqliteBackend(db_path))
        graph = _path_graph()
        key, solve = _key_and_solve(graph)
        assert cache.lookup(key, graph) is None  # empty, not crashed
        cache.store(key, graph, solve)
        assert cache.lookup(key, graph).coloring_for(graph) == _coloring(graph)
        cache.close()

    def test_truncated_file_is_rebuilt(self, db_path):
        # A valid header with the body chopped off: opens, then fails on read.
        cache = ComponentCache(backend=SqliteBackend(db_path))
        graph = _path_graph()
        key, solve = _key_and_solve(graph)
        cache.store(key, graph, solve)
        cache.close()
        db_path.write_bytes(db_path.read_bytes()[:100])
        reopened = ComponentCache(backend=SqliteBackend(db_path))
        reopened.store(key, graph, solve)
        assert reopened.lookup(key, graph).coloring_for(graph) == _coloring(graph)
        reopened.close()

    def test_corrupt_payload_row_becomes_a_miss(self, db_path):
        """A damaged row is dropped and re-solved, never raised to the caller."""
        graph = _path_graph()
        key, solve = _key_and_solve(graph)
        cache = ComponentCache(backend=SqliteBackend(db_path))
        cache.store(key, graph, solve)
        with sqlite3.connect(str(db_path)) as conn:
            conn.execute("UPDATE components SET payload = '{broken json'")
        assert cache.lookup(key, graph) is None
        assert len(cache) == 0  # the bad row is gone
        cache.store(key, graph, solve)
        assert cache.lookup(key, graph).coloring_for(graph) == _coloring(graph)
        cache.close()

    def test_v1_era_store_is_dropped_wholesale(self, db_path):
        """A database written by the schema-v1 build loses its rows on open.

        v1 rows are keyed by the retired repr-string hashing scheme — no
        current caller can ever produce those keys, so keeping the rows
        would only burn the entry budget.  Simulates the old file by
        rewinding the stamped schema version under populated tables.
        """
        graph = _path_graph()
        key, solve = _key_and_solve(graph)
        cache = ComponentCache(backend=SqliteBackend(db_path))
        cache.store(key, graph, solve)
        cache.close()
        with sqlite3.connect(str(db_path)) as conn:
            conn.execute("UPDATE meta SET value = '1' WHERE key = 'schema_version'")

        reopened = ComponentCache(backend=SqliteBackend(db_path))
        assert len(reopened) == 0
        with sqlite3.connect(str(db_path)) as conn:
            stamped = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()[0]
        assert stamped == str(SCHEMA_VERSION)
        reopened.close()

    def test_schema_version_mismatch_invalidates(self, db_path):
        graph = _path_graph()
        key, solve = _key_and_solve(graph)
        cache = ComponentCache(backend=SqliteBackend(db_path))
        cache.store(key, graph, solve)
        cache.close()

        with sqlite3.connect(str(db_path)) as conn:
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION + 1),),
            )

        reopened = ComponentCache(backend=SqliteBackend(db_path))
        assert len(reopened) == 0  # old entries dropped, not misread
        assert reopened.lookup(key, graph) is None
        reopened.store(key, graph, solve)
        assert reopened.lookup(key, graph).coloring_for(graph) == _coloring(graph)
        reopened.close()


#: A row as the cache wrote it while it had a record type of its own, taken
#: from a ``SqliteBackend`` file: C432 at scale 0.1, K=4, ``sdp-backtrack``,
#: the component of vertex 3.  Rows keep their bytes, so the store's
#: ``SCHEMA_VERSION`` stays 3.
LITERAL_KEY = "7a6ffcd3cd2da8b60e2cb2fe4e607cd28313dd928a6f37d34ea252610a63d03e"
LITERAL_ROW = (
    '{"colors":[0,0,1,2,0,0,2,0,0,1,2,2,0,0,0,1,1,2,0,0,1,2,3,1],'
    '"report":{"num_vertices":0,"num_connected_components":0,'
    '"peeled_vertices":18,"num_biconnected_blocks":1,"num_ghtree_parts":0,'
    '"largest_colored_piece":6,"colored_pieces":1},'
    '"timeouts":0,"shape":[24,49,7,3]}'
)
LITERAL_SOLVE = ComponentSolve(
    key=LITERAL_KEY,
    ranks=[0, 0, 1, 2, 0, 0, 2, 0, 0, 1, 2, 2, 0, 0, 0, 1, 1, 2, 0, 0, 1, 2, 3, 1],
    report=DivisionReport(
        peeled_vertices=18,
        num_biconnected_blocks=1,
        largest_colored_piece=6,
        colored_pieces=1,
    ),
    solver_timeouts=0,
    cache_hit=True,
    shape=(24, 49, 7, 3),
)


class TestRowFormat:
    def test_literal_row_decodes_and_reencodes(self):
        solve = _decode_record(LITERAL_ROW, LITERAL_KEY)
        assert solve == LITERAL_SOLVE
        assert _encode_record(solve) == LITERAL_ROW

    def test_store_writes_the_literal_row_and_replays_it(self, db_path):
        graph = circuit_graph("C432", 4, scale=0.1).graph
        component = graph.subgraph(next(c for c in connected_components(graph) if 3 in c))
        cache = ComponentCache(backend=SqliteBackend(db_path))
        cache.store(LITERAL_KEY, component, LITERAL_SOLVE)
        with sqlite3.connect(str(db_path)) as conn:
            rows = conn.execute("SELECT key, payload FROM components").fetchall()
        assert rows == [(LITERAL_KEY, LITERAL_ROW)]
        hit = cache.lookup(LITERAL_KEY, component)
        assert hit == LITERAL_SOLVE
        assert hit.coloring_for(component) == dict(
            zip(component.vertices(), LITERAL_SOLVE.ranks)
        )
        cache.close()

    @pytest.mark.parametrize(
        "damage",
        [
            lambda data: data.pop("shape"),
            lambda data: data["colors"].pop(),
            lambda data: data.update(shape=[]),
        ],
        ids=["no-shape", "short-colors", "empty-shape"],
    )
    def test_damaged_row_is_dropped_as_a_miss(self, db_path, damage):
        """A row that decodes but cannot replay onto its own shape is
        damaged: dropped and re-solved, never raised to the caller."""
        graph = _path_graph()
        key, solve = _key_and_solve(graph)
        cache = ComponentCache(backend=SqliteBackend(db_path))
        cache.store(key, graph, solve)
        with sqlite3.connect(str(db_path)) as conn:
            (payload,) = conn.execute("SELECT payload FROM components").fetchone()
            data = json.loads(payload)
            damage(data)
            conn.execute("UPDATE components SET payload = ?", (json.dumps(data),))
        assert cache.lookup(key, graph) is None
        assert len(cache) == 0  # dropped like any damaged row
        assert read_persistent_stats(db_path)["misses"] == 1
        cache.close()


class TestEvictionAndStats:
    def test_lru_eviction_bounds_entries(self, db_path):
        backend = SqliteBackend(db_path, max_entries=2)
        cache = ComponentCache(backend=backend)
        graphs = [_path_graph(length=length) for length in (3, 4, 5)]
        keys = []
        for graph in graphs:
            key, solve = _key_and_solve(graph)
            keys.append(key)
            cache.store(key, graph, solve)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # Oldest (never re-used) entry went first.
        assert cache.lookup(keys[0], graphs[0]) is None
        assert cache.lookup(keys[2], graphs[2]) is not None
        cache.close()

    def test_invalid_max_entries_rejected(self, db_path):
        with pytest.raises(ValueError):
            SqliteBackend(db_path, max_entries=0)

    def test_persistent_counters_survive_reopen(self, db_path):
        graph = _path_graph()
        key, solve = _key_and_solve(graph)
        cache = open_cache(db_path=str(db_path))
        cache.store(key, graph, solve)
        assert cache.lookup(key, graph) is not None
        cache.close()

        stats = read_persistent_stats(db_path)
        assert stats == {
            "hits": 1,
            "misses": 0,
            "stores": 1,
            "evictions": 0,
            "entries": 1,
        }

    def test_read_persistent_stats_missing_file(self, tmp_path):
        assert read_persistent_stats(tmp_path / "never-created.db") is None


class TestOpenCache:
    def test_open_cache_selects_backend(self, db_path):
        memory = open_cache()
        assert isinstance(memory.backend, InMemoryBackend)
        disk = open_cache(db_path=str(db_path))
        assert isinstance(disk.backend, SqliteBackend)
        disk.close()

    def test_frontend_rejects_double_sizing(self, db_path):
        backend = SqliteBackend(db_path, max_entries=4)
        with pytest.raises(ValueError):
            ComponentCache(max_entries=4, backend=backend)
        assert ComponentCache(backend=backend).max_entries == 4
        backend.close()
