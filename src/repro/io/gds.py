"""Minimal GDSII stream reader and writer.

The DAC'14 benchmarks are distributed as GDSII Metal1 layers.  The full GDSII
specification covers hierarchy (SREF/AREF), paths, text and node records; a
layout decomposer only needs flat polygon data, so this module implements the
subset that matters:

* library / structure framing records (HEADER, BGNLIB, LIBNAME, UNITS,
  BGNSTR, STRNAME, ENDSTR, ENDLIB),
* BOUNDARY elements with LAYER, DATATYPE and XY records,
* PATH elements (converted to their rectangular outline using WIDTH), and
* graceful skipping of any other record type.

The writer emits a single flat structure with one BOUNDARY per shape, which
round-trips through the reader and is accepted by mainstream viewers
(KLayout) — enough to exchange masks produced by the decomposer.

The reader decodes from bytes (:func:`parse_gds`; :func:`read_gds` is the
file wrapper), so uploads never touch the filesystem, and every malformed
stream — truncated records, odd-sized integer payloads, element records of
the wrong data type, degenerate outlines — raises :class:`LayoutIOError`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.errors import LayoutIOError
from repro.geometry.layout import OUT_OF_RANGE_MESSAGE, Layout
from repro.geometry.point import COORDINATE_MAX, COORDINATE_MIN, Point
from repro.geometry.polygon import Polygon

# GDSII record types used by this subset (record type byte values).
HEADER = 0x00
BGNLIB = 0x01
LIBNAME = 0x02
UNITS = 0x03
ENDLIB = 0x04
BGNSTR = 0x05
STRNAME = 0x06
ENDSTR = 0x07
BOUNDARY = 0x08
PATH = 0x09
SREF = 0x0A
AREF = 0x0B
TEXT = 0x0C
LAYER = 0x0D
DATATYPE = 0x0E
WIDTH = 0x0F
XY = 0x10
ENDEL = 0x11

# GDSII data type codes.
_NO_DATA = 0x00
_BITARRAY = 0x01
_INT16 = 0x02
_INT32 = 0x03
_REAL8 = 0x05
_ASCII = 0x06


@dataclass
class GdsRecord:
    """A single GDSII record: type byte, data type byte and decoded payload."""

    record_type: int
    data_type: int
    data: Union[bytes, str, List[int], List[float]]


def _decode_real8(raw: bytes) -> float:
    """Decode one GDSII 8-byte excess-64 floating point number."""
    if len(raw) != 8:
        raise LayoutIOError(f"REAL8 record of length {len(raw)}")
    sign = -1.0 if raw[0] & 0x80 else 1.0
    exponent = (raw[0] & 0x7F) - 64
    mantissa = 0
    for byte in raw[1:]:
        mantissa = (mantissa << 8) | byte
    return sign * mantissa * (16.0 ** (exponent - 14))


def _encode_real8(value: float) -> bytes:
    """Encode a float as a GDSII 8-byte excess-64 real."""
    if value == 0.0:
        return b"\x00" * 8
    sign = 0x80 if value < 0 else 0x00
    value = abs(value)
    exponent = 64
    while value >= 1.0:
        value /= 16.0
        exponent += 1
    while value < 1.0 / 16.0:
        value *= 16.0
        exponent -= 1
    mantissa = int(round(value * (2 ** 56)))
    out = bytearray(8)
    out[0] = sign | (exponent & 0x7F)
    for i in range(7, 0, -1):
        out[i] = mantissa & 0xFF
        mantissa >>= 8
    return bytes(out)


def _iter_records(raw: bytes) -> Iterable[GdsRecord]:
    """Yield decoded records from a GDSII byte stream."""
    offset = 0
    size = len(raw)
    while offset + 4 <= size:
        (length,) = struct.unpack(">H", raw[offset : offset + 2])
        if length == 0:
            break  # optional null padding at end of stream
        if length < 4 or offset + length > size:
            raise LayoutIOError(f"malformed GDSII record length {length} at byte {offset}")
        record_type = raw[offset + 2]
        data_type = raw[offset + 3]
        payload = raw[offset + 4 : offset + length]
        offset += length
        yield GdsRecord(record_type, data_type, _decode_payload(data_type, payload))
    if offset < size and any(raw[offset:]):
        # Trailing non-zero bytes mean the stream was truncated mid-record.
        raise LayoutIOError("truncated GDSII stream")


def _decode_payload(data_type: int, payload: bytes):
    if data_type == _NO_DATA:
        return b""
    if data_type == _INT16:
        if len(payload) % 2:
            raise LayoutIOError(f"INT16 record payload of {len(payload)} bytes")
        return list(struct.unpack(f">{len(payload) // 2}h", payload))
    if data_type == _INT32:
        if len(payload) % 4:
            raise LayoutIOError(f"INT32 record payload of {len(payload)} bytes")
        return list(struct.unpack(f">{len(payload) // 4}i", payload))
    if data_type == _REAL8:
        return [
            _decode_real8(payload[i : i + 8]) for i in range(0, len(payload), 8)
        ]
    if data_type == _ASCII:
        return payload.rstrip(b"\x00").decode("ascii", errors="replace")
    return payload


def _encode_record(record_type: int, data_type: int, payload) -> bytes:
    """Encode a record to bytes, padding ASCII payloads to even length."""
    if data_type == _NO_DATA:
        body = b""
    elif data_type == _INT16:
        body = struct.pack(f">{len(payload)}h", *payload)
    elif data_type == _INT32:
        body = struct.pack(f">{len(payload)}i", *payload)
    elif data_type == _REAL8:
        body = b"".join(_encode_real8(v) for v in payload)
    elif data_type == _ASCII:
        raw = payload.encode("ascii")
        if len(raw) % 2:
            raw += b"\x00"
        body = raw
    else:
        raise LayoutIOError(f"unsupported GDSII data type {data_type}")
    length = 4 + len(body)
    return struct.pack(">HBB", length, record_type, data_type) + body


def read_gds(
    path: Union[str, Path],
    layer_map: Optional[Dict[int, str]] = None,
    default_layer: str = "metal1",
) -> Layout:
    """Read a flat GDSII file into a :class:`Layout` (see :func:`parse_gds`).

    The file stem names the layout unless the stream carries a name.
    """
    return parse_gds(
        Path(path).read_bytes(), layer_map, default_layer, name=Path(path).stem
    )


def _int_record(record: GdsRecord) -> List[int]:
    """The integer payload of a LAYER/WIDTH/XY record; anything else is malformed."""
    if record.data_type not in (_INT16, _INT32):
        raise LayoutIOError(
            f"GDSII record 0x{record.record_type:02x} has data type "
            f"0x{record.data_type:02x}, expected an integer type"
        )
    return record.data


def parse_gds(
    raw: bytes,
    layer_map: Optional[Dict[int, str]] = None,
    default_layer: str = "metal1",
    name: str = "layout",
) -> Layout:
    """Decode a flat GDSII byte stream into a :class:`Layout`.

    Parameters
    ----------
    raw:
        The GDSII stream.
    layer_map:
        Optional mapping from GDS layer numbers to layer names.  Unmapped
        layers get the name ``"gds<layer>"``.
    default_layer:
        Name used when a BOUNDARY carries no LAYER record (non-conforming but
        seen in the wild).
    name:
        Layout name when the stream carries neither LIBNAME nor STRNAME.

    Raises :class:`LayoutIOError` for any malformed stream.
    """
    layout: Optional[Layout] = None
    dbu_per_nm = 1.0

    current_element: Optional[int] = None
    current_layer: Optional[int] = None
    current_width = 0
    current_xy: List[int] = []

    for record in _iter_records(raw):
        rt = record.record_type
        if rt == LIBNAME:
            name = str(record.data)
        elif rt == UNITS:
            # data = [user units per dbu, meters per dbu]
            if isinstance(record.data, list) and len(record.data) >= 2:
                meters_per_dbu = float(record.data[1])
                dbu_per_nm = 1e-9 / meters_per_dbu if meters_per_dbu else 1.0
        elif rt == BGNSTR:
            if layout is None:
                layout = Layout(name=name, dbu_per_nm=dbu_per_nm)
        elif rt == STRNAME and layout is not None:
            layout.name = str(record.data)
        elif rt in (BOUNDARY, PATH):
            current_element = rt
            current_layer = None
            current_width = 0
            current_xy = []
        elif rt == LAYER and current_element is not None:
            values = _int_record(record)
            current_layer = values[0] if values else None
        elif rt == WIDTH and current_element is not None:
            values = _int_record(record)
            current_width = values[0] if values else 0
        elif rt == XY and current_element is not None:
            current_xy = _int_record(record)
        elif rt == ENDEL and current_element is not None:
            if layout is None:
                layout = Layout(name=name, dbu_per_nm=dbu_per_nm)
            _finish_element(
                layout,
                current_element,
                current_layer,
                current_width,
                current_xy,
                layer_map or {},
                default_layer,
            )
            current_element = None
        elif rt == ENDLIB:
            break

    if layout is None:
        layout = Layout(name=name, dbu_per_nm=dbu_per_nm)
    return layout


def _finish_element(
    layout: Layout,
    element: int,
    layer: Optional[int],
    width: int,
    xy: List[int],
    layer_map: Dict[int, str],
    default_layer: str,
) -> None:
    """Convert a finished BOUNDARY/PATH element into layout shapes."""
    if len(xy) < 4:
        return
    layer_name = default_layer
    if layer is not None:
        layer_name = layer_map.get(layer, f"gds{layer}")
    points = [Point(xy[i], xy[i + 1]) for i in range(0, len(xy) - 1, 2)]
    try:
        if element == BOUNDARY:
            layout.add_polygon(Polygon.from_points(points), layer_name)
        elif element == PATH:
            for polygon in _path_to_polygons(points, width):
                layout.add_polygon(polygon, layer_name)
    except Exception as exc:  # degenerate outline: report, do not abort
        kind = "BOUNDARY" if element == BOUNDARY else "PATH"
        raise LayoutIOError(f"bad {kind} outline: {exc}") from exc


def _path_to_polygons(points: Sequence[Point], width: int) -> List[Polygon]:
    """Expand a Manhattan PATH centreline into rectangle polygons.

    Raises :class:`LayoutIOError` when the widening puts a corner outside
    the signed 32-bit range of GDSII coordinates.
    """
    if width <= 0:
        return []
    half = width // 2
    polygons: List[Polygon] = []
    for a, b in zip(points[:-1], points[1:]):
        if a.x == b.x:  # vertical segment
            xl, xh = a.x - half, a.x + half
            yl, yh = min(a.y, b.y) - half, max(a.y, b.y) + half
        elif a.y == b.y:  # horizontal segment
            xl, xh = min(a.x, b.x) - half, max(a.x, b.x) + half
            yl, yh = a.y - half, a.y + half
        else:  # non-Manhattan path segments are outside the supported subset
            continue
        if min(xl, yl) < COORDINATE_MIN or max(xh, yh) > COORDINATE_MAX:
            raise LayoutIOError(OUT_OF_RANGE_MESSAGE)
        polygons.append(Polygon.from_points([(xl, yl), (xh, yl), (xh, yh), (xl, yh)]))
    return polygons


def write_gds(
    layout: Layout,
    path: Union[str, Path],
    layer_numbers: Optional[Dict[str, int]] = None,
) -> None:
    """Write a :class:`Layout` as a flat, single-structure GDSII file.

    Parameters
    ----------
    layout:
        Layout to serialise.
    path:
        Output file path.
    layer_numbers:
        Optional mapping from layer names to GDS layer numbers.  Unmapped
        layers are numbered in sorted-name order starting at 1.
    """
    if layer_numbers is None:
        layer_numbers = {name: i + 1 for i, name in enumerate(layout.layers())}

    meters_per_dbu = 1e-9 / layout.dbu_per_nm if layout.dbu_per_nm else 1e-9
    timestamp = [2014, 6, 1, 0, 0, 0]  # fixed stamp keeps output deterministic

    records: List[bytes] = [
        _encode_record(HEADER, _INT16, [600]),
        _encode_record(BGNLIB, _INT16, timestamp * 2),
        _encode_record(LIBNAME, _ASCII, layout.name or "repro"),
        _encode_record(UNITS, _REAL8, [1e-3, meters_per_dbu]),
        _encode_record(BGNSTR, _INT16, timestamp * 2),
        _encode_record(STRNAME, _ASCII, layout.name or "TOP"),
    ]
    for shape in layout:
        layer_number = layer_numbers.get(shape.layer, 1)
        xy: List[int] = []
        for vertex in shape.polygon.vertices:
            xy.extend((vertex.x, vertex.y))
        # GDSII boundaries repeat the first vertex to close the outline.
        xy.extend((shape.polygon.vertices[0].x, shape.polygon.vertices[0].y))
        records.append(_encode_record(BOUNDARY, _NO_DATA, b""))
        records.append(_encode_record(LAYER, _INT16, [layer_number]))
        records.append(_encode_record(DATATYPE, _INT16, [0]))
        records.append(_encode_record(XY, _INT32, xy))
        records.append(_encode_record(ENDEL, _NO_DATA, b""))
    records.append(_encode_record(ENDSTR, _NO_DATA, b""))
    records.append(_encode_record(ENDLIB, _NO_DATA, b""))

    Path(path).write_bytes(b"".join(records))
