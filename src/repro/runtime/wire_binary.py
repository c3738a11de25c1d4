"""Binary wire frames for the component micro-batch hot path.

``POST /components`` is the cluster's dominant byte stream: every layout a
coordinator serves ships each distinct component's graph to its owner node.
The frame defined here ships the graphs as the packed flat arrays of
:mod:`repro.graph.flat`: length-prefixed, little-endian, base64-free,
decoded by ``struct``/``array`` at memcpy speed.  It is the only wire a
node speaks; the request body is marked ``application/x-repro-components-v2``
(:data:`COMPONENTS_V2_CONTENT_TYPE`).

Frame layout (all integers little-endian)::

    <4s magic  b"RPC2">
    <B  frame version (2)>
    <I  colors>
    <B  algorithm length> <algorithm utf-8>
    <B  trace id length> <trace id ascii>   # 0 = request is untraced
    <I  component count>
    per component:
        <B  key length> <canonical key ascii>   # 0 = sender did not hash
        <I  graph frame length> <flat-graph frame>   # repro.graph.flat

A node decodes exactly :data:`FRAME_VERSION` and answers any other version
with ``400``.  Nodes also report the version on ``GET /healthz``
(``components_frame``); a coordinator's heartbeat refuses a peer that
reports a different one, so a mixed-version cluster fails loudly at the
membership probe instead of negotiating.

Each component's canonical cache key rides along so the node never re-hashes
a graph the coordinator already hashed for routing — the "hash once per
component per request" contract.  The per-component graph frames are length-
prefixed, so one malformed frame is reported as that component's error entry
while its batch siblings decode and solve normally.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from repro.graph.flat import FlatFrameError, FlatGraph, graph_from_frame
from repro.runtime.component_io import ComponentWireError

#: ``Content-Type`` marking a v2 binary components request body.
COMPONENTS_V2_CONTENT_TYPE = "application/x-repro-components-v2"

_MAGIC = b"RPC2"
#: The envelope layout this build speaks.
FRAME_VERSION = 2

_ENVELOPE = struct.Struct("<4sBIB")  # magic, version, colors, algorithm length
_U32 = struct.Struct("<I")
_U8 = struct.Struct("<B")


def encode_components_frame(
    entries: List[Tuple[Optional[str], FlatGraph]],
    colors: int,
    algorithm: str,
    trace_id: Optional[str] = None,
) -> bytes:
    """Encode one ``POST /components`` binary request body.

    ``entries`` pairs each component's canonical key (``None`` when the
    sender did not compute one) with its flat-array graph.  The trace field
    is always present; it is empty for an untraced request.
    """
    algorithm_utf8 = algorithm.encode("utf-8")
    if len(algorithm_utf8) > 255:
        raise ComponentWireError(f"algorithm name too long: {algorithm!r}")
    trace_ascii = (trace_id or "").encode("ascii")
    if len(trace_ascii) > 255:
        raise ComponentWireError(f"trace id too long: {trace_id!r}")
    parts: List[bytes] = [
        _ENVELOPE.pack(_MAGIC, FRAME_VERSION, colors, len(algorithm_utf8)),
        algorithm_utf8,
        _U8.pack(len(trace_ascii)),
        trace_ascii,
        _U32.pack(len(entries)),
    ]
    for key, flat in entries:
        key_ascii = (key or "").encode("ascii")
        if len(key_ascii) > 255:
            raise ComponentWireError(f"component key too long: {key!r}")
        frame = flat.to_bytes()
        parts.append(_U8.pack(len(key_ascii)))
        parts.append(key_ascii)
        parts.append(_U32.pack(len(frame)))
        parts.append(frame)
    return b"".join(parts)


def frame_size(flat: FlatGraph, key: Optional[str] = None) -> int:
    """Exact on-wire byte cost of one component entry (for batch budgeting)."""
    return _U8.size + len(key or "") + _U32.size + flat.frame_size()


class ComponentFrame:
    """One decoded component of a request: its key, graph, or decode error.

    ``flat`` is the entry's graph, checked by
    :func:`~repro.graph.flat.graph_from_frame`; ``frame`` keeps its raw
    graph-frame bytes so the server can hand them straight to a worker
    without re-encoding.
    """

    __slots__ = ("key", "flat", "frame", "error")

    def __init__(
        self,
        key: Optional[str] = None,
        flat: Optional[FlatGraph] = None,
        frame: Optional[bytes] = None,
        error: Optional[str] = None,
    ) -> None:
        self.key = key
        self.flat = flat
        self.frame = frame
        self.error = error


def decode_components_frame(
    data: bytes,
) -> Tuple[int, str, Optional[str], List[ComponentFrame]]:
    """Decode a binary request body into ``(colors, algorithm, trace_id, components)``.

    ``trace_id`` is ``None`` when the trace field is empty.  A malformed
    *envelope* (bad magic/version, truncated header or entry framing)
    raises :class:`ComponentWireError` — the whole request is
    unintelligible and answers ``400``.  A malformed *graph frame inside an
    intact entry* (any fault :func:`~repro.graph.flat.graph_from_frame`
    names) becomes that entry's :attr:`ComponentFrame.error` so the node
    fails only that component.
    """
    view = memoryview(data)
    try:
        magic, version, colors, algorithm_length = _ENVELOPE.unpack_from(view, 0)
    except struct.error as exc:
        raise ComponentWireError(f"truncated components frame header: {exc}") from exc
    if magic != _MAGIC:
        raise ComponentWireError(
            f"bad components frame magic {bytes(magic)!r} (expected {_MAGIC!r})"
        )
    if version != FRAME_VERSION:
        raise ComponentWireError(
            f"unsupported components frame version {version} "
            f"(this node speaks version {FRAME_VERSION})"
        )
    cursor = _ENVELOPE.size
    if cursor + algorithm_length > len(view):
        raise ComponentWireError("components frame truncated in algorithm name")
    try:
        algorithm = bytes(view[cursor : cursor + algorithm_length]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ComponentWireError(f"invalid algorithm name bytes: {exc}") from exc
    cursor += algorithm_length
    if cursor + _U8.size > len(view):
        raise ComponentWireError("components frame truncated before trace id")
    (trace_length,) = _U8.unpack_from(view, cursor)
    cursor += _U8.size
    if cursor + trace_length > len(view):
        raise ComponentWireError("components frame truncated in trace id")
    try:
        trace_id = bytes(view[cursor : cursor + trace_length]).decode("ascii") or None
    except UnicodeDecodeError as exc:
        raise ComponentWireError(f"trace id is not ascii: {exc}") from exc
    cursor += trace_length
    if cursor + _U32.size > len(view):
        raise ComponentWireError("components frame truncated before component count")
    (count,) = _U32.unpack_from(view, cursor)
    cursor += _U32.size

    components: List[ComponentFrame] = []
    for position in range(count):
        if cursor + _U8.size > len(view):
            raise ComponentWireError(
                f"components frame truncated before entry {position}"
            )
        (key_length,) = _U8.unpack_from(view, cursor)
        cursor += _U8.size
        if cursor + key_length + _U32.size > len(view):
            raise ComponentWireError(
                f"components frame truncated in entry {position} framing"
            )
        try:
            key = bytes(view[cursor : cursor + key_length]).decode("ascii") or None
        except UnicodeDecodeError as exc:
            raise ComponentWireError(
                f"entry {position} key is not ascii: {exc}"
            ) from exc
        cursor += key_length
        (frame_length,) = _U32.unpack_from(view, cursor)
        cursor += _U32.size
        if cursor + frame_length > len(view):
            raise ComponentWireError(
                f"components frame truncated in entry {position} graph"
            )
        frame = view[cursor : cursor + frame_length]
        cursor += frame_length
        # The entry is intact (length-prefixed); a bad graph inside it fails
        # only this component.
        try:
            flat = graph_from_frame(frame).to_arrays()
        except FlatFrameError as exc:
            components.append(ComponentFrame(key=key, error=str(exc)))
        else:
            components.append(ComponentFrame(key=key, flat=flat, frame=bytes(frame)))
    if cursor != len(view):
        raise ComponentWireError(
            f"components frame has {len(view) - cursor} trailing bytes"
        )
    return colors, algorithm, trace_id, components
