"""Flat-array canonical form of a :class:`DecompositionGraph`.

Every hot path that moves a component between contexts — hashing it for the
cache key, shipping it coordinator→node over HTTP, shipping it to a worker
process — used to build its *own* expensive representation: a giant
``repr`` string, nested JSON lists, or a pickled object graph.
:class:`FlatGraph` is the single representation all three consume: packed
``array`` buffers in the **order-preserving canonical relabeling** that
:mod:`repro.runtime.hashing` defines (vertices by rank in sorted-id order,
edge endpoints rewritten over ranks, edge lists sorted).

The layout is:

* ``vertex_ids``  — ``int64[n]``, the real vertex ids in sorted order
  (``vertex_ids[rank]`` is the rank→id map);
* ``shape_ids``   — ``int64[n]`` aligned with ``vertex_ids`` (``-1`` encodes
  ``None``);
* ``fragments``   — ``uint32[n]``;
* ``weights``     — ``uint32[n]``;
* ``conflict_edges`` / ``stitch_edges`` / ``friend_edges`` — ``uint32[2m]``,
  flattened ``(u_rank, v_rank)`` pairs with ``u_rank <= v_rank``, pairs in
  sorted order.

The *canonical* portion — ``weights`` plus the three rank-space edge lists —
is exactly the payload :func:`repro.runtime.hashing.canonical_component_key`
fingerprints, so two graphs with equal canonical buffers are equal under the
order-preserving relabeling and can share a cached coloring.  The identity
portion (``vertex_ids``/``shape_ids``/``fragments``) restores the original
graph bit-for-bit via :meth:`to_graph`.

Byte encodings are **little-endian** regardless of host order (keys and wire
frames must agree across machines); on the ubiquitous little-endian hosts the
conversion is free (``array.tobytes`` already is LE).

Frame format (version 1), used verbatim inside the binary component wire and
the inline frames worker pools ship::

    <B  frame version (1)>
    <I  n = vertex count>            little-endian u32
    <8n vertex_ids>                  little-endian i64 each
    <8n shape_ids>
    <4n fragments>                   little-endian u32 each
    <4n weights>
    three edge lists, each: <I pair count> <8*pairs packed u32 rank pairs>
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import List, Optional, Tuple

from repro.errors import GraphError

#: Bump when the frame layout changes; decoders reject other versions.
FLAT_FRAME_VERSION = 1

_U32 = struct.Struct("<I")
_HEADER = struct.Struct("<BI")  # frame version, vertex count

#: ``None`` shape ids on the wire.
_NO_SHAPE = -1

_LITTLE_ENDIAN = sys.byteorder == "little"


def _le_bytes(buf: array) -> bytes:
    """Return ``buf``'s items as little-endian bytes (free on LE hosts)."""
    if _LITTLE_ENDIAN:
        return buf.tobytes()
    swapped = array(buf.typecode, buf)
    swapped.byteswap()
    return swapped.tobytes()


def _array_from_le(typecode: str, data) -> array:
    """Build an array from little-endian bytes-like data (one copy)."""
    buf = array(typecode)
    buf.frombytes(data)
    if not _LITTLE_ENDIAN:
        buf.byteswap()
    return buf


class FlatFrameError(GraphError):
    """A malformed or truncated flat-graph frame."""


class FlatGraph:
    """Packed-array snapshot of one decomposition graph (immutable by use).

    Built by :meth:`DecompositionGraph.to_arrays`; consumed by the hashing,
    wire and worker-dispatch layers.  Instances are cheap views over ``array``
    buffers — copying one is copying a few contiguous allocations, not an
    object graph.
    """

    __slots__ = (
        "vertex_ids",
        "shape_ids",
        "fragments",
        "weights",
        "conflict_edges",
        "stitch_edges",
        "friend_edges",
    )

    def __init__(
        self,
        vertex_ids: array,
        shape_ids: array,
        fragments: array,
        weights: array,
        conflict_edges: array,
        stitch_edges: array,
        friend_edges: array,
    ) -> None:
        self.vertex_ids = vertex_ids
        self.shape_ids = shape_ids
        self.fragments = fragments
        self.weights = weights
        self.conflict_edges = conflict_edges
        self.stitch_edges = stitch_edges
        self.friend_edges = friend_edges

    # ----------------------------------------------------------- properties
    @property
    def num_vertices(self) -> int:
        return len(self.vertex_ids)

    @property
    def num_conflict_edges(self) -> int:
        return len(self.conflict_edges) // 2

    @property
    def num_stitch_edges(self) -> int:
        return len(self.stitch_edges) // 2

    def canonical_buffers(self) -> Tuple[array, ...]:
        """The buffers that define canonical equality (the hash payload).

        Vertex ids, shape ids and fragments are *identity*, not structure:
        two translated copies of a standard cell differ in all three yet must
        hash (and cache) identically.
        """
        return (self.weights, self.conflict_edges, self.stitch_edges, self.friend_edges)

    # ----------------------------------------------------------- encoding
    def frame_size(self) -> int:
        """Exact byte length of :meth:`to_bytes` without encoding."""
        n = len(self.vertex_ids)
        edges = len(self.conflict_edges) + len(self.stitch_edges) + len(self.friend_edges)
        return _HEADER.size + 16 * n + 8 * n + 3 * _U32.size + 4 * edges

    def to_bytes(self) -> bytes:
        """Serialise to the length-self-describing frame format."""
        parts: List[bytes] = [
            _HEADER.pack(FLAT_FRAME_VERSION, len(self.vertex_ids)),
            _le_bytes(self.vertex_ids),
            _le_bytes(self.shape_ids),
            _le_bytes(self.fragments),
            _le_bytes(self.weights),
        ]
        for edges in (self.conflict_edges, self.stitch_edges, self.friend_edges):
            parts.append(_U32.pack(len(edges) // 2))
            parts.append(_le_bytes(edges))
        return b"".join(parts)

    @staticmethod
    def from_bytes(data, offset: int = 0) -> Tuple["FlatGraph", int]:
        """Decode one frame from ``data`` at ``offset``.

        Accepts any bytes-like object (``bytes``, a ``memoryview`` into a
        request body).  Returns ``(flat, end offset)``; raises
        :class:`FlatFrameError` on truncation, bad version, or edge ranks
        outside the vertex range.
        """
        view = memoryview(data)
        try:
            version, n = _HEADER.unpack_from(view, offset)
        except struct.error as exc:
            raise FlatFrameError(f"truncated flat-graph header: {exc}") from exc
        if version != FLAT_FRAME_VERSION:
            raise FlatFrameError(
                f"unsupported flat-graph frame version {version} "
                f"(this build speaks version {FLAT_FRAME_VERSION})"
            )
        cursor = offset + _HEADER.size

        def take(typecode: str, count: int, what: str) -> array:
            nonlocal cursor
            width = 8 if typecode == "q" else 4
            end = cursor + width * count
            if end > len(view):
                raise FlatFrameError(f"flat-graph frame truncated in {what}")
            # The memoryview slice feeds frombytes directly — this is the
            # worker-side hot decode, so the one copy into the array is the
            # only copy.
            buf = _array_from_le(typecode, view[cursor:end])
            cursor = end
            return buf

        vertex_ids = take("q", n, "vertex ids")
        shape_ids = take("q", n, "shape ids")
        fragments = take("I", n, "fragments")
        weights = take("I", n, "weights")
        edge_lists: List[array] = []
        for what in ("conflict edges", "stitch edges", "friend edges"):
            if cursor + _U32.size > len(view):
                raise FlatFrameError(f"flat-graph frame truncated before {what}")
            (pairs,) = _U32.unpack_from(view, cursor)
            cursor += _U32.size
            edges = take("I", 2 * pairs, what)
            if edges and max(edges) >= n:
                raise FlatFrameError(
                    f"{what} reference rank {max(edges)} outside 0..{n - 1}"
                )
            edge_lists.append(edges)
        flat = FlatGraph(
            vertex_ids, shape_ids, fragments, weights,
            edge_lists[0], edge_lists[1], edge_lists[2],
        )
        return flat, cursor

    # --------------------------------------------------------------- graph
    def is_canonical(self) -> bool:
        """True when the buffers are exactly what :func:`flatten_graph` emits.

        Vertex ids strictly increasing (so rank order is sorted-id order)
        and every edge list a strictly increasing sequence of normalised
        ``u <= v`` rank pairs (so the lists are sorted and duplicate-free).
        Only such a snapshot may be re-attached to a rebuilt graph as its
        memoised flat form: frames arrive over the wire, and memoising a
        non-canonical frame would poison the canonical hash downstream.
        """
        ids = self.vertex_ids
        for i in range(len(ids) - 1):
            if ids[i] >= ids[i + 1]:
                return False
        for edges in (self.conflict_edges, self.stitch_edges, self.friend_edges):
            prev_u = prev_v = -1
            for i in range(0, len(edges), 2):
                u, v = edges[i], edges[i + 1]
                if u > v:
                    return False
                if u < prev_u or (u == prev_u and v <= prev_v):
                    return False
                prev_u, prev_v = u, v
        return True

    def to_graph(self, memoize: bool = False):
        """Rebuild the original :class:`DecompositionGraph`, bit-for-bit.

        The reconstruction round-trips exactly: vertex ids, per-vertex data,
        and all three edge sets equal the source graph's, so colorings (and
        canonical keys) computed on the rebuilt graph match the original.

        This is the worker-side hot path (every binary-wire or pool-dispatched
        component lands here), so it populates the graph's storage directly
        instead of going through the per-call-validating mutator methods:
        the structural invariants the mutators enforce — known endpoints, no
        self loops — are guaranteed by :meth:`from_bytes`'s rank-range check
        plus the explicit self-loop check below, and are re-checked cheaply
        here for directly-constructed instances.

        With ``memoize=True`` this snapshot is attached to the rebuilt graph
        as its memoised flat form (guarded by :meth:`is_canonical`), so the
        worker-side canonical hash and the solve kernels consume the shipped
        buffers directly instead of re-flattening the rebuilt dicts.
        """
        from repro.graph.decomposition_graph import DecompositionGraph, VertexData

        ids = self.vertex_ids
        graph = DecompositionGraph()
        vertices = graph._vertices
        try:
            for rank, vertex in enumerate(ids):
                shape = self.shape_ids[rank]
                vertices[vertex] = VertexData(
                    shape_id=None if shape == _NO_SHAPE else shape,
                    fragment=self.fragments[rank],
                    weight=self.weights[rank],
                )
            adjacencies = (graph._conflict_adj, graph._stitch_adj, graph._friend_adj)
            for adjacency in adjacencies:
                for vertex in ids:
                    adjacency[vertex] = set()
            edge_sets = (graph._conflict_edges, graph._stitch_edges, graph._friend_edges)
            for edges, adjacency, edge_set in zip(
                (self.conflict_edges, self.stitch_edges, self.friend_edges),
                adjacencies,
                edge_sets,
            ):
                for i in range(0, len(edges), 2):
                    u, v = ids[edges[i]], ids[edges[i + 1]]
                    if u == v:
                        raise FlatFrameError(f"self loop on vertex {u}")
                    adjacency[u].add(v)
                    adjacency[v].add(u)
                    edge_set.add((u, v) if u <= v else (v, u))
        except IndexError as exc:
            raise FlatFrameError(f"edge rank outside the vertex range: {exc}") from exc
        if memoize and self.is_canonical():
            graph._flat = self
        return graph

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlatGraph):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlatGraph(|V|={self.num_vertices}, "
            f"|CE|={self.num_conflict_edges}, |SE|={self.num_stitch_edges})"
        )


def graph_from_frame(data, memoize: bool = False):
    """Decode one complete flat-graph frame into a graph.

    The one materialisation helper every transport consumer uses (binary
    wire jobs, inline pickle-channel frames), so
    the trailing-bytes check can never silently diverge between them.
    Raises :class:`FlatFrameError` on any malformation.  ``memoize=True``
    re-attaches the decoded (canonical) frame as the graph's flat form —
    see :meth:`FlatGraph.to_graph`.
    """
    flat, end = FlatGraph.from_bytes(data)
    if end != len(data):
        raise FlatFrameError(f"graph frame has {len(data) - end} trailing bytes")
    return flat.to_graph(memoize=memoize)


def flatten_graph(graph) -> FlatGraph:
    """Build the flat-array form of ``graph`` (used by ``to_arrays``).

    The relabeling is the same order-preserving one
    :mod:`repro.runtime.hashing` has always used: rank = position in
    sorted-id order, edge pairs normalised to ``u_rank <= v_rank``, pairs in
    sorted order.  No re-sorting is needed: the graph's edge accessors
    already return sorted ``(u, v)`` id pairs with ``u <= v``, and the
    id→rank map is strictly monotone, so the mapped rank pairs arrive
    normalised *and* sorted — exactly the legacy ``_relabel_edges`` output.
    """
    order = graph.vertices()
    rank = {vertex: index for index, vertex in enumerate(order)}
    data = [graph.vertex_data(vertex) for vertex in order]

    def pack_edges(edges) -> array:
        return array(
            "I", (rank[endpoint] for pair in edges for endpoint in pair)
        )

    return FlatGraph(
        vertex_ids=array("q", order),
        shape_ids=array(
            "q",
            (_NO_SHAPE if d.shape_id is None else d.shape_id for d in data),
        ),
        fragments=array("I", (d.fragment for d in data)),
        weights=array("I", (d.weight for d in data)),
        conflict_edges=pack_edges(graph.conflict_edges()),
        stitch_edges=pack_edges(graph.stitch_edges()),
        friend_edges=pack_edges(graph.friend_edges()),
    )
