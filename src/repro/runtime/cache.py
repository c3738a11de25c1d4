"""Memoisation of solved decomposition-graph components.

Standard-cell layouts repeat the same cell across the die, so after graph
division the pipeline (:mod:`repro.runtime.pipeline`) sees the same small
component over and over, within one layout and across layouts.  The
:class:`ComponentCache` stores each :class:`ComponentSolve`, a solved
component in canonical (rank) space, keyed by
:func:`repro.runtime.hashing.canonical_component_key`; a later isomorphic
component replays the stored ranks onto its own vertex ids
(:meth:`ComponentSolve.coloring_for`) instead of re-running the solver.

Because the canonical relabeling is order-preserving and every colorer is
equivariant under order-preserving relabelings (see :mod:`hashing`), a cache
hit returns exactly the coloring a fresh solve would have produced — caching
never changes results, only CPU time.  Entries also carry the component's
:class:`~repro.core.division.DivisionReport` delta and solver-timeout count
so replays reproduce the full solve byproducts, not just the colors.  One
cache is safe to share across the layouts of a batch and across algorithms
and K (the key fingerprints both).

Storage is pluggable: :class:`ComponentCache` is a thin frontend (shape
stamping + hit/miss accounting) over a :class:`CacheBackend`.  Two backends
ship with the library:

* :class:`InMemoryBackend` — the default LRU ``OrderedDict`` store, private
  to one process;
* :class:`repro.runtime.sqlite_cache.SqliteBackend` — a SQLite (WAL) file
  shared by many processes and surviving restarts, used by the decomposition
  server so repeated cells are solved once *across requests and machines
  lifetimes*, not just within one batch.

:func:`open_cache` picks between them from plain configuration values (the
CLI flags and server options map straight onto it).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Protocol, Tuple

from repro.core.division import DivisionReport
from repro.errors import ComponentWireError
from repro.graph.decomposition_graph import DecompositionGraph


@dataclass
class ComponentSolve:
    """One solved component in canonical rank space.

    What every executor returns and what the cache stores and hands back:
    :func:`~repro.runtime.component_io.solve_component` builds it from a
    solve, :func:`~repro.runtime.component_io.parse_component_response`
    from a node's response entry, and :meth:`ComponentCache.lookup` returns
    the stored one.  ``ranks[r]`` colors the vertex of rank ``r`` (its
    position in sorted-id order).  ``shape`` fingerprints the solved graph's
    structure (vertex count and the three edge counts); the cache stamps it
    on store and rejects a lookup whose graph has another shape, so a key
    arriving from an untrusted component request can never replay some
    *other* component's coloring as a hit.
    """

    key: str
    ranks: List[int]
    report: DivisionReport = field(default_factory=DivisionReport)
    solver_timeouts: int = 0
    cache_hit: bool = False
    shape: Optional[Tuple[int, int, int, int]] = None

    def coloring_for(self, graph: DecompositionGraph) -> Dict[int, int]:
        """Replay the rank-space coloring onto ``graph``'s own vertex ids.

        Valid for any component with the same canonical key as the one that
        was solved; the one rank-to-id mapping of the component layer.
        """
        order = graph.vertices()
        if len(order) != len(self.ranks):
            raise ComponentWireError(
                f"component response colors {len(self.ranks)} vertices, "
                f"local component has {len(order)}"
            )
        return dict(zip(order, self.ranks))


def graph_shape(graph: DecompositionGraph) -> Tuple[int, int, int, int]:
    """The structural fingerprint stored in (and checked against) solves."""
    return (
        graph.num_vertices,
        graph.num_conflict_edges,
        graph.num_stitch_edges,
        graph.num_friend_edges,
    )


def _shape_matches(solve: ComponentSolve, expected) -> bool:
    """The backends' shared guard (``expected`` ``None``: don't check)."""
    return expected is None or solve.shape == expected


@dataclass
class CacheStats:
    """Hit/miss accounting of one :class:`ComponentCache`.

    ``hits`` counts every component answered without a solve: backend hits
    plus the identical siblings :func:`repro.runtime.pipeline.color_graph`
    replays from a solve in hand.  ``misses`` counts backend reads that
    found nothing; the pipeline reads each distinct key once per call.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Entry count at the time of the last :meth:`ComponentCache.snapshot_stats`.
    entries_hint: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> str:
        """One-line report used by the CLI and batch summaries."""
        return (
            f"component cache: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate), {self.entries_hint} entries"
        )

    def to_json_dict(self) -> Dict[str, object]:
        """JSON-serialisable view (batch reports, server ``/stats``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.entries_hint,
            "hit_rate": self.hit_rate,
        }


class CacheBackend(Protocol):
    """Storage contract behind :class:`ComponentCache`.

    Solves are stored and handed back unchanged, in canonical rank space;
    the frontend stamps each one's shape before ``put``.  ``put``
    returns the number of entries evicted to make room, so the frontend can
    account for them.  Backends own their persistence/concurrency story;
    the frontend never assumes entries survive between calls (a concurrent
    process may have evicted them).

    ``get`` takes the caller's expected structural shape (``None`` = don't
    check): a solve under the right key but the wrong shape is a *miss* —
    returned as ``None``, counted as a miss by backends with persistent
    counters, and not refreshed in LRU order — so an untrusted key can
    neither smuggle a mismatched coloring out nor distort the accounting.
    """

    def get(
        self, key: str, expected_shape: Optional[Tuple[int, int, int, int]] = None
    ) -> Optional[ComponentSolve]: ...

    def put(self, key: str, solve: ComponentSolve) -> int: ...

    def __len__(self) -> int: ...

    def clear(self) -> None: ...

    def close(self) -> None: ...


class InMemoryBackend:
    """Process-private LRU store (the historical ``ComponentCache`` storage).

    Parameters
    ----------
    max_entries:
        Upper bound on stored components; ``None`` means unbounded.  Eviction
        is least-recently-used so the hot cells of a layout stay resident.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, ComponentSolve]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self, key: str, expected_shape: Optional[Tuple[int, int, int, int]] = None
    ) -> Optional[ComponentSolve]:
        solve = self._entries.get(key)
        if solve is None or not _shape_matches(solve, expected_shape):
            return None
        self._entries.move_to_end(key)
        return solve

    def put(self, key: str, solve: ComponentSolve) -> int:
        self._entries[key] = solve
        self._entries.move_to_end(key)
        evicted = 0
        if self.max_entries is not None and len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            evicted += 1
        return evicted

    def clear(self) -> None:
        self._entries.clear()

    def close(self) -> None:  # nothing to release
        pass


class ComponentCache:
    """Cache of component solutions in canonical rank space.

    Parameters
    ----------
    max_entries:
        Upper bound on stored components; ``None`` means unbounded.  Only
        meaningful when ``backend`` is not given (it sizes the default
        in-memory LRU backend).
    backend:
        Storage implementation; defaults to a process-private
        :class:`InMemoryBackend`.  Pass a
        :class:`~repro.runtime.sqlite_cache.SqliteBackend` for a disk-backed
        cache shared across processes and restarts.
    """

    def __init__(
        self,
        max_entries: Optional[int] = None,
        backend: Optional[CacheBackend] = None,
    ) -> None:
        if backend is None:
            backend = InMemoryBackend(max_entries)
        elif max_entries is not None:
            raise ValueError("pass max_entries to the backend, not both")
        self.backend = backend
        self.stats = CacheStats()

    @property
    def max_entries(self) -> Optional[int]:
        """Entry bound of the underlying backend (``None`` when unbounded)."""
        return getattr(self.backend, "max_entries", None)

    def __len__(self) -> int:
        return len(self.backend)

    # ------------------------------------------------------------- lookup
    def lookup(self, key: str, graph: DecompositionGraph) -> Optional[ComponentSolve]:
        """Return the solve stored under ``key`` for ``graph``, or ``None``.

        Records a hit or miss in :attr:`stats`.  A solve whose stored shape
        does not match ``graph``'s is a miss, never a crash: keys may
        arrive from untrusted component requests (a node trusts the
        coordinator's routing hash), and the shape guard keeps a mismatched
        key from replaying a structurally different component's coloring.
        The guard is structural, not cryptographic — a forged key naming a
        *same-shape* different component yields a wrong answer to the
        forging caller only; stores always re-key locally, so the cache
        itself can never be poisoned (see
        :func:`repro.runtime.component_io.solve_component_job`).
        """
        solve = self.backend.get(key, graph_shape(graph))
        if solve is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return solve

    def store(self, key: str, graph: DecompositionGraph, solve: ComponentSolve) -> None:
        """Store ``solve``, solved on ``graph``, under ``key``.

        What is stored is what a later hit returns: ``solve``'s ranks,
        report delta and timeouts, with ``cache_hit`` set and ``graph``'s
        shape.
        """
        stored = replace(solve, key=key, cache_hit=True, shape=graph_shape(graph))
        self.stats.evictions += self.backend.put(key, stored)

    def snapshot_stats(self) -> CacheStats:
        """Return a point-in-time copy of the stats with the entry count.

        A copy, not the live object: callers (e.g. batch reports) keep the
        snapshot after the cache continues accumulating hits elsewhere.
        """
        return CacheStats(
            hits=self.stats.hits,
            misses=self.stats.misses,
            evictions=self.stats.evictions,
            entries_hint=len(self.backend),
        )

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        self.backend.clear()

    def close(self) -> None:
        """Release backend resources (database connections etc.)."""
        self.backend.close()


def open_cache(
    db_path: Optional[str] = None,
    max_entries: Optional[int] = None,
) -> ComponentCache:
    """Build a :class:`ComponentCache` from plain configuration values.

    ``db_path=None`` returns the in-memory LRU cache; a path opens (or
    creates) the shared SQLite store at that location.  This is the single
    construction point used by the CLI flags (``--cache-db`` /
    ``--cache-max-entries``) and by every server worker process.
    """
    if db_path is None:
        return ComponentCache(max_entries=max_entries)
    from repro.runtime.sqlite_cache import SqliteBackend

    return ComponentCache(backend=SqliteBackend(db_path, max_entries=max_entries))
