"""SQLite-backed component cache shared across processes and restarts.

:class:`SqliteBackend` implements the :class:`~repro.runtime.cache.CacheBackend`
protocol on top of a single SQLite file, so a
:class:`~repro.runtime.cache.ComponentCache` built over it memoises solved
components *across* worker processes, server restarts and even unrelated CLI
invocations pointed at the same ``--cache-db``.  This is the durable half of
the ROADMAP's "solve each standard cell once" goal: the in-memory LRU dies
with its process, the SQLite store does not.

Design notes
------------

* **WAL mode** — ``PRAGMA journal_mode=WAL`` lets concurrent reader
  processes proceed while one writer commits; every operation runs in its
  own short transaction with a generous busy timeout, which is all a
  decomposition-farm access pattern (many small independent rows) needs.
* **Versioned schema** — the on-disk layout is stamped with
  :data:`SCHEMA_VERSION`; opening a file written by a different version
  drops and recreates the tables rather than misreading old payloads.  The
  component *keys* already fingerprint the hashing scheme and every solve
  option, so entries can never be wrongly shared across configurations.
* **Corruption recovery** — a file that is not a SQLite database (truncated,
  overwritten, garbage) is detected on open, deleted (together with its
  ``-wal``/``-shm`` sidecars) and rebuilt empty.  A cache must never be the
  reason a decomposition fails.
* **LRU eviction** — ``last_used`` holds a monotone logical clock (a counter
  row, not wall time, so concurrent processes cannot tie); when
  ``max_entries`` is set, the oldest rows beyond the bound are deleted on
  insert.
* **Persistent counters** — cumulative hits/misses/stores/evictions live in
  the database itself, so the server's ``GET /stats`` can report cache
  effectiveness aggregated over *all* worker processes, and tests can verify
  that a restarted server really reused its predecessor's entries.

Each row holds one :class:`~repro.runtime.cache.ComponentSolve` in
canonical rank space as JSON (ranks, report delta, timeouts, shape); the
solve a hit decodes replays onto the caller's vertex ids through
:meth:`~repro.runtime.cache.ComponentSolve.coloring_for`, so SQLite-cached
solves stay bit-identical to fresh ones.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from dataclasses import fields
from pathlib import Path
from typing import Dict, Optional, Union

from repro.core.division import DivisionReport
from repro.runtime.cache import ComponentSolve, _shape_matches

#: Bump when the table layout, the JSON payload format, or the canonical
#: hashing scheme feeding the keys changes; mismatched stores are dropped and
#: rebuilt on open.  v2: component keys moved to the packed-array hashing
#: scheme (``repro.runtime.hashing._SCHEMA_VERSION == 2``) — v1 rows are keyed
#: by digests no current caller can ever look up, so they are dead weight and
#: are dropped wholesale here rather than aged out one eviction at a time.
#: v3: solver outputs changed (greedy-merged ordering fix), and the hashing
#: schema moved to v3 with it — stale rows would replay pre-fix colorings.
SCHEMA_VERSION = 3

#: Seconds a writer waits on a locked database before giving up.
BUSY_TIMEOUT_SECONDS = 30.0


def _encode_record(solve: ComponentSolve) -> str:
    """Serialise a rank-space solve to the JSON payload format."""
    report = {f.name: getattr(solve.report, f.name) for f in fields(DivisionReport)}
    payload = {
        "colors": solve.ranks,
        "report": report,
        "timeouts": solve.solver_timeouts,
        "shape": list(solve.shape),
    }
    return json.dumps(payload, separators=(",", ":"))


def _decode_record(payload: str, key: str) -> ComponentSolve:
    """The solve stored under ``key``, as a hit hands it back.

    A damaged payload raises :class:`ValueError`, :class:`KeyError` or
    :class:`TypeError`, and the caller drops the row: also one without
    ``shape``, or whose colors do not cover the vertex count in its shape
    (the shape guard would pass it, and its replay would fail).
    """
    data = json.loads(payload)
    solve = ComponentSolve(
        key=key,
        ranks=data["colors"],
        report=DivisionReport(**data["report"]),
        solver_timeouts=data["timeouts"],
        cache_hit=True,
        shape=tuple(data["shape"]),
    )
    if len(solve.shape) != 4 or len(solve.ranks) != solve.shape[0]:
        raise ValueError(f"row colors {len(solve.ranks)} vertices, shape {solve.shape}")
    return solve


class SqliteBackend:
    """Durable, multi-process :class:`CacheBackend` over one SQLite file.

    Parameters
    ----------
    path:
        Database file; created (with parent directories) when missing.
    max_entries:
        Upper bound on stored components shared by every process using the
        file; ``None`` means unbounded.
    """

    def __init__(
        self,
        path: Union[str, Path],
        max_entries: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.path = Path(path)
        self.max_entries = max_entries
        # One connection per backend, shared across threads of this process
        # under a lock (the server's inline pool mode runs jobs on executor
        # threads); other processes open their own backend over the file.
        self._lock = threading.RLock()
        self._conn = self._open()

    # ------------------------------------------------------------ lifecycle
    def _open(self) -> sqlite3.Connection:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            return self._connect_and_migrate()
        except sqlite3.DatabaseError:
            # Not a database / unreadable header / corrupted pages: rebuild
            # fresh.  Losing cache entries is always safe — they are pure
            # memoisation.
            self._remove_database_files()
            return self._connect_and_migrate()

    def _connect_and_migrate(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            str(self.path), timeout=BUSY_TIMEOUT_SECONDS, check_same_thread=False
        )
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            with conn:
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS meta "
                    "(key TEXT PRIMARY KEY, value TEXT NOT NULL)"
                )
                row = conn.execute(
                    "SELECT value FROM meta WHERE key = 'schema_version'"
                ).fetchone()
                if row is not None and row[0] != str(SCHEMA_VERSION):
                    # Written by another version of this module: drop the
                    # payload tables, keep the file.
                    conn.execute("DROP TABLE IF EXISTS components")
                    conn.execute("DROP TABLE IF EXISTS counters")
                    row = None
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS components ("
                    " key TEXT PRIMARY KEY,"
                    " payload TEXT NOT NULL,"
                    " last_used INTEGER NOT NULL)"
                )
                conn.execute(
                    "CREATE INDEX IF NOT EXISTS idx_components_last_used"
                    " ON components(last_used)"
                )
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS counters "
                    "(name TEXT PRIMARY KEY, value INTEGER NOT NULL)"
                )
                if row is None:
                    conn.execute(
                        "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                        ("schema_version", str(SCHEMA_VERSION)),
                    )
            # A corrupted file can open fine and fail later; probe the pages
            # that matter now so recovery happens in one place.
            conn.execute("SELECT COUNT(*) FROM components").fetchone()
            return conn
        except sqlite3.DatabaseError:
            conn.close()
            raise

    def _remove_database_files(self) -> None:
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(f"{self.path}{suffix}")
            except FileNotFoundError:
                pass

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # ------------------------------------------------------------- protocol
    def __len__(self) -> int:
        with self._lock:
            return self._conn.execute("SELECT COUNT(*) FROM components").fetchone()[0]

    def get(
        self, key: str, expected_shape: Optional[tuple] = None
    ) -> Optional[ComponentSolve]:
        with self._lock, self._conn:
            row = self._conn.execute(
                "SELECT payload FROM components WHERE key = ?", (key,)
            ).fetchone()
            solve = None
            if row is not None:
                try:
                    solve = _decode_record(row[0], key)
                except (ValueError, KeyError, TypeError):
                    # Damaged payload (torn write, manual edit): the cache
                    # must never fail a decomposition — drop the row and
                    # treat it as a miss so the component is re-solved.
                    self._conn.execute(
                        "DELETE FROM components WHERE key = ?", (key,)
                    )
                if solve is not None and not _shape_matches(solve, expected_shape):
                    # Wrong shape under a (possibly untrusted) key: a miss.
                    # The row itself is legitimate — keep it, but neither
                    # count a hit nor refresh its LRU slot.
                    solve = None
            if solve is None:
                self._bump_locked("misses")
                return None
            self._conn.execute(
                "UPDATE components SET last_used = ? WHERE key = ?",
                (self._tick_locked(), key),
            )
            self._bump_locked("hits")
        return solve

    def put(self, key: str, solve: ComponentSolve) -> int:
        payload = _encode_record(solve)
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO components (key, payload, last_used) "
                "VALUES (?, ?, ?)",
                (key, payload, self._tick_locked()),
            )
            self._bump_locked("stores")
            evicted = 0
            if self.max_entries is not None:
                total = self._conn.execute(
                    "SELECT COUNT(*) FROM components"
                ).fetchone()[0]
                excess = total - self.max_entries
                if excess > 0:
                    self._conn.execute(
                        "DELETE FROM components WHERE key IN ("
                        " SELECT key FROM components"
                        " ORDER BY last_used ASC, key ASC LIMIT ?)",
                        (excess,),
                    )
                    self._bump_locked("evictions", excess)
                    evicted = excess
        return evicted

    def clear(self) -> None:
        with self._lock, self._conn:
            self._conn.execute("DELETE FROM components")

    # ------------------------------------------------------------- counters
    def _tick_locked(self) -> int:
        """Advance and return the shared logical clock (caller holds txn)."""
        self._conn.execute(
            "INSERT INTO counters (name, value) VALUES ('clock', 1) "
            "ON CONFLICT(name) DO UPDATE SET value = value + 1"
        )
        return self._conn.execute(
            "SELECT value FROM counters WHERE name = 'clock'"
        ).fetchone()[0]

    def _bump_locked(self, name: str, amount: int = 1) -> None:
        self._conn.execute(
            "INSERT INTO counters (name, value) VALUES (?, ?) "
            "ON CONFLICT(name) DO UPDATE SET value = value + excluded.value",
            (name, amount),
        )


def read_persistent_stats(path: Union[str, Path]) -> Optional[Dict[str, int]]:
    """Read the cumulative counters of a cache database without keeping it open.

    Returns ``None`` when the file does not exist yet (or cannot be read as a
    cache database).  Used by the server's main process — a monitoring path,
    so the connection is **read-only**: unlike :class:`SqliteBackend`, a
    corrupt-looking file is reported as absent rather than deleted and
    rebuilt.  Destroying the store the workers are actively writing to is
    never an acceptable side effect of a ``/stats`` call.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        conn = sqlite3.connect(
            f"file:{path}?mode=ro", uri=True, timeout=BUSY_TIMEOUT_SECONDS
        )
        try:
            rows = dict(
                conn.execute(
                    "SELECT name, value FROM counters WHERE name != 'clock'"
                ).fetchall()
            )
            entries = conn.execute("SELECT COUNT(*) FROM components").fetchone()[0]
        finally:
            conn.close()
    except sqlite3.Error:
        return None
    return {
        "hits": rows.get("hits", 0),
        "misses": rows.get("misses", 0),
        "stores": rows.get("stores", 0),
        "evictions": rows.get("evictions", 0),
        "entries": entries,
    }
