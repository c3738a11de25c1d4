"""Execution runtime: parallel component scheduling, memoisation, batching.

The divide stage of the paper's flow produces many independent subproblems;
this package turns that structural fact into throughput:

* :mod:`repro.runtime.hashing` — canonical, order-preserving component keys;
* :mod:`repro.runtime.cache` — :class:`ComponentCache`, replaying previously
  solved components bit-identically over a pluggable :class:`CacheBackend`
  (in-memory LRU by default);
* :mod:`repro.runtime.sqlite_cache` — :class:`SqliteBackend`, the durable
  multi-process store behind ``--cache-db`` and the decomposition server;
* :mod:`repro.runtime.scheduler` — :class:`ComponentScheduler` /
  :func:`schedule_and_color`, process-pool execution with largest-first
  ordering, deterministic merge and graceful serial fallback;
* :mod:`repro.runtime.batch` — :func:`decompose_many`, the multi-layout API
  behind the ``repro-decompose batch`` subcommand;
* :mod:`repro.runtime.wire_binary` — the binary v2 ``POST /components``
  frame over the flat-array graph form of :mod:`repro.graph.flat`.

Every path through this package preserves the exact masks, conflict counts
and stitch counts of the serial pipeline.
"""

from repro.runtime.cache import (
    CacheBackend,
    CacheStats,
    ComponentCache,
    ComponentRecord,
    InMemoryBackend,
    open_cache,
)
from repro.runtime.sqlite_cache import SqliteBackend
from repro.runtime.hashing import canonical_component_key, options_fingerprint
from repro.runtime.scheduler import (
    ComponentScheduler,
    ScheduleOutcome,
    WorkItem,
    resolve_workers,
    schedule_and_color,
)
from repro.runtime.batch import BatchItem, BatchResult, decompose_many
from repro.runtime.wire_binary import (
    COMPONENTS_V2_CONTENT_TYPE,
    decode_components_frame,
    encode_components_frame,
)

__all__ = [
    "CacheBackend",
    "CacheStats",
    "ComponentCache",
    "ComponentRecord",
    "InMemoryBackend",
    "SqliteBackend",
    "open_cache",
    "canonical_component_key",
    "options_fingerprint",
    "ComponentScheduler",
    "ScheduleOutcome",
    "WorkItem",
    "resolve_workers",
    "schedule_and_color",
    "BatchItem",
    "BatchResult",
    "decompose_many",
    "COMPONENTS_V2_CONTENT_TYPE",
    "decode_components_frame",
    "encode_components_frame",
]
