"""Canonical hashing of decomposition-graph components.

The component cache (:mod:`repro.runtime.cache`) must recognise a component
it has already solved even when the component reappears under different
vertex ids — the standard-cell layouts of :mod:`repro.bench` repeat the same
cell (and hence the same decomposition subgraph) many times across the die.

The canonical form used here is the **order-preserving relabeling**: vertices
are replaced by their rank in sorted-id order, and the three edge sets
(conflict, stitch, color-friendly) are rewritten over ranks and sorted.  Two
components that are isomorphic via a monotone vertex map therefore hash
identically.  Order preservation is a deliberate restriction, not a
shortcut: every color-assignment algorithm in :mod:`repro.core` iterates
``graph.vertices()`` (sorted) and breaks ties by vertex id, so a coloring
computed on the canonical graph maps back to *exactly* the coloring the
algorithm would have produced in place.  That property is what lets the
cache replay results while keeping the parallel/cached path bit-identical to
the serial one.  A stronger isomorphism-complete canonicalisation would trade
that determinism guarantee away (and cost far more per component).

Vertex weights are folded into the key because merged graphs weight their
vertices; plain construction output always has weight 1 so repeated cells
still collide.  The key also fingerprints everything else that influences the
solution: K, the algorithm name and the full :class:`AlgorithmOptions` /
:class:`DivisionOptions` field sets — changing any option invalidates the
cache by construction.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import fields
from typing import List

from repro.core.options import AlgorithmOptions, DivisionOptions
from repro.graph.decomposition_graph import DecompositionGraph
from repro.graph.flat import _le_bytes

#: Bump when the canonical payload layout changes so stale keys cannot
#: accidentally collide across versions of the hashing scheme.
#: v1 hashed a ``repr``-built string of the relabeled edge tuples; v2 streams
#: the packed little-endian flat arrays (:mod:`repro.graph.flat`) instead —
#: the same canonical relabeling, two orders of magnitude less string work.
#: v3 marks the greedy-merged ordering fix (conflict-degree order replacing
#: group-size order): solver outputs changed for some components, so pre-fix
#: cached colorings must not be replayed against the fixed solvers.
#: v4 marks the fixed-order SDP relaxation arithmetic (seeded raw-word start
#: point, edge-order scatter, left-to-right sums): sdp-* solutions changed
#: under unchanged keys, so cached pre-v4 relaxations must not be replayed.
#: v5 marks the one-round SDP penalty schedule (``SdpOptions`` runs one
#: penalty round by default instead of six): sdp-* solutions changed under
#: unchanged keys, so cached pre-v5 sdp colorings must not be replayed.
_SCHEMA_VERSION = 5

_U32 = struct.Struct("<I")


def options_fingerprint(
    algorithm_options: AlgorithmOptions, division: DivisionOptions
) -> str:
    """Return a stable fingerprint of every option that can change a solution.

    Iterates the dataclass fields by name so new options are picked up
    automatically — adding a knob can never silently alias old cache entries.
    """
    parts: List[str] = []
    for obj in (algorithm_options, division):
        for f in sorted(fields(obj), key=lambda f: f.name):
            parts.append(f"{type(obj).__name__}.{f.name}={getattr(obj, f.name)!r}")
    return ";".join(parts)


def canonical_component_key(
    graph: DecompositionGraph,
    num_colors: int,
    algorithm: str,
    algorithm_options: AlgorithmOptions,
    division: DivisionOptions,
) -> str:
    """Return the cache key of ``graph`` under the given solve configuration.

    Key equality implies the canonically-relabeled components are *equal*
    (same rank edge lists and weights) and every solve parameter matches, so
    a cached canonical coloring can be replayed through the rank map without
    re-solving.

    The key is **memoised on the graph object** (per solve configuration,
    dropped on structural mutation), so the pipeline's dedup, the cache
    lookup and the coordinator's routing hash each component once.  The
    payload streams straight out of the memoised flat-array form
    (:meth:`~repro.graph.decomposition_graph.DecompositionGraph.to_arrays`):
    a fixed header followed by the length-prefixed packed little-endian
    canonical buffers (weights, then the three rank-space edge lists).
    """
    config = (num_colors, algorithm, options_fingerprint(algorithm_options, division))
    memo = graph._key_memo
    key = memo.get(config)
    if key is not None:
        return key
    flat = graph.to_arrays()
    digest = hashlib.sha256(
        f"v{_SCHEMA_VERSION}|n={flat.num_vertices}|K={num_colors}"
        f"|alg={algorithm}|{config[2]}|".encode("utf-8")
    )
    for buf in flat.canonical_buffers():
        digest.update(_U32.pack(len(buf)))
        digest.update(_le_bytes(buf))
    key = digest.hexdigest()
    memo[config] = key
    return key
