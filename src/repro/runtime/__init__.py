"""Execution runtime: the component pipeline, memoisation, batching.

The divide stage of the paper's flow produces many independent subproblems;
this package turns that structural fact into throughput:

* :mod:`repro.runtime.pipeline` — :func:`color_graph`, the one
  divide → dedup → solve → merge pipeline, and its in-process and
  process-pool executors (largest-first ordering, deterministic merge,
  in-process fallback when the pool dies);
* :mod:`repro.runtime.hashing` — canonical, order-preserving component keys;
* :mod:`repro.runtime.cache` — :class:`ComponentCache`, storing each solved
  component as the rank-space
  :class:`~repro.runtime.cache.ComponentSolve` every executor returns and
  handing it back unchanged, over a pluggable :class:`CacheBackend`
  (in-memory LRU by default);
* :mod:`repro.runtime.sqlite_cache` — :class:`SqliteBackend`, the durable
  multi-process store behind ``--cache-db`` and the decomposition server;
* :mod:`repro.runtime.batch` — :func:`decompose_many`, the multi-layout API
  behind the ``repro-decompose batch`` subcommand;
* :mod:`repro.runtime.wire_binary` — the binary v2 ``POST /components``
  frame over the flat-array graph form of :mod:`repro.graph.flat`, each
  graph frame checked by :func:`~repro.graph.flat.graph_from_frame` and
  solved on a view of it.

Every path through this package preserves the exact masks, conflict counts
and stitch counts of the serial pipeline.
"""

from repro.runtime.cache import (
    CacheBackend,
    CacheStats,
    ComponentCache,
    InMemoryBackend,
    open_cache,
)
from repro.runtime.sqlite_cache import SqliteBackend
from repro.runtime.hashing import canonical_component_key, options_fingerprint
from repro.runtime.pipeline import (
    ColoredGraph,
    PoolExecutor,
    color_graph,
    executor_for,
    resolve_workers,
    solve_inline,
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
    "InMemoryBackend",
    "SqliteBackend",
    "open_cache",
    "canonical_component_key",
    "options_fingerprint",
    "ColoredGraph",
    "PoolExecutor",
    "color_graph",
    "executor_for",
    "resolve_workers",
    "solve_inline",
    "BatchItem",
    "BatchResult",
    "decompose_many",
    "COMPONENTS_V2_CONTENT_TYPE",
    "decode_components_frame",
    "encode_components_frame",
]
