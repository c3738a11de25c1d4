"""The two CSR builds and the two degree orders give the same buffers.

``core/kernels/adjacency`` builds a relation's CSR rows with numpy from
``_NUMPY_MIN_EDGES`` edge-array entries (two per pair) on, and with a
python loop below; ``degree_order`` argsorts with numpy from 128 vertices
on.  The kernels read these buffers, so whichever path runs must produce
the same bytes.
"""

from __future__ import annotations

from array import array
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import adjacency


@st.composite
def edge_arrays(draw, max_vertices=200):
    """``(n, edges)``: sorted, duplicate-free ``u < v`` rank pairs, flattened
    into the ``I`` array a flat graph stores, on both sides of the numpy
    threshold."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    if n < 2:
        return n, array("I")
    rank = st.integers(min_value=0, max_value=n - 1)
    pair = st.tuples(rank, rank).filter(lambda p: p[0] != p[1]).map(lambda p: (min(p), max(p)))
    pairs = sorted(draw(st.sets(pair, max_size=3 * adjacency._NUMPY_MIN_EDGES // 4)))
    return n, array("I", [rank for p in pairs for rank in p])


@settings(max_examples=150, deadline=None)
@given(edge_arrays())
def test_both_csr_builds_give_the_same_buffers(case):
    n, edges = case
    vectorised = adjacency._build_csr_numpy(n, edges)
    with mock.patch.object(adjacency, "_NUMPY_MIN_EDGES", len(edges) + 1):
        looped = adjacency._build_csr(n, edges)
    assert [buf.typecode for buf in looped] == [buf.typecode for buf in vectorised] == ["i", "i"]
    assert [buf.tobytes() for buf in looped] == [buf.tobytes() for buf in vectorised]
    assert adjacency._build_csr(n, edges) == looped  # the path chosen by size

    start, adj = looped
    rows = {r: [] for r in range(n)}
    for u, v in zip(edges[::2], edges[1::2]):
        rows[u].append(v)
        rows[v].append(u)
    assert [adj[start[r] : start[r + 1]].tolist() for r in range(n)] == [
        sorted(rows[r]) for r in range(n)
    ]


@settings(max_examples=150, deadline=None)
@given(edge_arrays())
def test_both_degree_orders_agree(case):
    n, edges = case
    start, _ = adjacency._build_csr(n, edges)
    expected = sorted(range(n), key=lambda r: (start[r] - start[r + 1], r))
    assert adjacency.degree_order(start, n) == expected
