"""CSR adjacency built from the packed flat-graph edge arrays.

The compiled kernels walk neighbours through one contiguous index array per
relation (conflict / stitch / color-friendly) instead of per-vertex Python
sets; this module builds those arrays for the C core.  The
construction exploits an invariant of :class:`repro.graph.flat.FlatGraph`:
edge pairs are normalised (``u_rank <= v_rank``) and stored in sorted order,
so appending both directions while scanning the pairs once yields CSR rows
that are already sorted ascending — rank order equals vertex-id order under
the order-preserving relabeling, which is exactly the ``sorted(...)`` the
reference solvers apply per vertex.

numpy vectorises the degree count and prefix sum for larger components, and
a pure-``array`` loop builds the small ones, where numpy's per-call overhead
dominates; both give byte-identical buffers
(``tests/kernels/test_adjacency_paths.py``).
"""

from __future__ import annotations

from array import array
from typing import List, Tuple

import numpy as _np

#: Below this many edge-array entries (two per pair) the python loop beats
#: numpy's per-call overhead.
_NUMPY_MIN_EDGES = 256


class CSRAdjacency:
    """Compressed sparse rows for the three edge relations of one component.

    ``*_start`` has ``n + 1`` entries; the neighbours of rank ``r`` in
    relation ``x`` are ``x_adj[x_start[r]:x_start[r + 1]]``, sorted
    ascending.  Degrees are ``x_start[r + 1] - x_start[r]``.
    """

    __slots__ = (
        "num_vertices",
        "conflict_start",
        "conflict_adj",
        "stitch_start",
        "stitch_adj",
        "friend_start",
        "friend_adj",
    )

    def __init__(self, flat, include_friend: bool = True) -> None:
        n = flat.num_vertices
        self.num_vertices = n
        self.conflict_start, self.conflict_adj = _build_csr(n, flat.conflict_edges)
        self.stitch_start, self.stitch_adj = _build_csr(n, flat.stitch_edges)
        if include_friend:
            self.friend_start, self.friend_adj = _build_csr(n, flat.friend_edges)
        else:
            # Callers that never touch friend edges (greedy) skip the build.
            self.friend_start = array("i", bytes(4 * (n + 1)))
            self.friend_adj = array("i")

    def conflict_degree(self, rank: int) -> int:
        return self.conflict_start[rank + 1] - self.conflict_start[rank]

    def stitch_degree(self, rank: int) -> int:
        return self.stitch_start[rank + 1] - self.stitch_start[rank]


def degree_order(start: array, n: int) -> List[int]:
    """Ranks sorted by (-degree, rank) for one CSR ``start`` array.

    Equals ``sorted(range(n), key=lambda r: (start[r] - start[r + 1], r))``:
    the numpy path is a stable argsort on the negated degrees, which keeps
    ascending-rank order within equal degrees.
    """
    if n >= 128:
        starts = _np.frombuffer(start, dtype=_np.int32)
        degrees = starts[1:] - starts[:-1]
        return _np.argsort(-degrees, kind="stable").tolist()
    return sorted(range(n), key=lambda r: (start[r] - start[r + 1], r))


def _build_csr(n: int, edges: array) -> Tuple[array, array]:
    """Build ``(start, adj)`` int32 CSR arrays from a flat rank-pair array."""
    if len(edges) >= _NUMPY_MIN_EDGES:
        return _build_csr_numpy(n, edges)
    degree = [0] * n
    for rank in edges:
        degree[rank] += 1
    start = array("i", bytes(4 * (n + 1)))
    total = 0
    for rank in range(n):
        start[rank] = total
        total += degree[rank]
    start[n] = total
    adj = array("i", bytes(4 * total))
    cursor = list(start[:n])
    for i in range(0, len(edges), 2):
        u, v = edges[i], edges[i + 1]
        adj[cursor[u]] = v
        cursor[u] += 1
        adj[cursor[v]] = u
        cursor[v] += 1
    return start, adj


def _build_csr_numpy(n: int, edges: array) -> Tuple[array, array]:
    """Vectorised CSR build; identical output to the pure-python path.

    Both endpoint directions are emitted in pair-scan order via a stable
    argsort on the endpoint ranks, preserving the sorted-row invariant.
    """
    pairs = _np.frombuffer(edges, dtype=_np.uint32).reshape(-1, 2)
    endpoints = pairs.reshape(-1)
    others = pairs[:, ::-1].reshape(-1)
    order = _np.argsort(endpoints, kind="stable")
    counts = _np.bincount(endpoints, minlength=n)
    start = _np.zeros(n + 1, dtype=_np.int32)
    _np.cumsum(counts, out=start[1:])
    adj = others[order].astype(_np.int32)
    start_arr = array("i")
    start_arr.frombytes(start.tobytes())
    adj_arr = array("i")
    adj_arr.frombytes(adj.tobytes())
    return start_arr, adj_arr
