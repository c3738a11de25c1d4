"""Packed outlines: a layer's shapes as integer arrays.

A served layout is decoded once, at the front door, into this form and
crosses the process boundary in it.  :class:`Outlines` holds one layer's
shapes as three arrays (int64 vertex coordinates, vertices per shape,
shape ids) and turns them into the rectangle rows the decomposition-graph
construction reads.  :class:`PackedLayout` is what a JSON layout document
or a parsed GDS stream decodes into before the decomposed layer is known.

:meth:`PackedLayout.from_dict` accepts and refuses exactly the documents
:meth:`Layout.from_dict <repro.geometry.layout.Layout.from_dict>` does,
with the same errors: a well-formed integer rectangle is checked inline,
and every other outline goes through the same
``Polygon.from_points(lattice_points(...))`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import LayoutIOError
from repro.geometry.layout import OUT_OF_RANGE_MESSAGE, Layout, lattice_points, shape_layer
from repro.geometry.point import COORDINATE_MAX, COORDINATE_MIN, Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import rect_array


@dataclass(frozen=True, eq=False)
class Outlines:
    """The outlines of one layer's shapes, packed.

    Attributes
    ----------
    coords:
        int64 ``(v, 2)`` array: every shape's outline vertices, shape after
        shape, each outline as :meth:`Polygon.from_points` normalised it.
    counts:
        int64 ``(s,)`` array: vertices per shape.
    shape_ids:
        int64 ``(s,)`` array: each shape's id in its layout.
    """

    coords: np.ndarray
    counts: np.ndarray
    shape_ids: np.ndarray

    def __len__(self) -> int:
        return len(self.counts)

    def rect_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(boxes, sizes)``: every shape's rectangle decomposition.

        ``boxes`` is an int64 ``(n, 4)`` array of ``(xl, yl, xh, yh)`` rows,
        shape after shape, and ``sizes`` the rows of each shape: the rows
        :func:`rect_array` gives over each shape's ``rects()``.  A
        four-vertex outline whose edges alternate between the axes is a
        rectangle, its own single row; every other outline is decomposed by
        :meth:`Polygon.to_rects`, which raises :class:`GeometryError` for
        one that encloses no area.  A coordinate outside the signed 32-bit
        range raises :class:`LayoutIOError`.
        """
        coords, counts = self.coords, self.counts
        if len(coords) and (coords.min() < COORDINATE_MIN or coords.max() > COORDINATE_MAX):
            raise LayoutIOError(OUT_OF_RANGE_MESSAGE)
        starts = np.cumsum(counts) - counts
        quads = np.flatnonzero(counts == 4)
        corners = coords[starts[quads, None] + np.arange(4)]
        xs, ys = corners[..., 0], corners[..., 1]
        boxes = np.stack(
            (xs.min(axis=1), ys.min(axis=1), xs.max(axis=1), ys.max(axis=1)), axis=1
        )
        # The edges alternate: x, y, x, y stay equal in turn, from vertex 0
        # or from vertex 1.
        turns = (
            (xs[:, 0] == xs[:, 1]) & (ys[:, 1] == ys[:, 2])
            & (xs[:, 2] == xs[:, 3]) & (ys[:, 3] == ys[:, 0])
        ) | (
            (ys[:, 0] == ys[:, 1]) & (xs[:, 1] == xs[:, 2])
            & (ys[:, 2] == ys[:, 3]) & (xs[:, 3] == xs[:, 0])
        )
        rectangle = turns & (boxes[:, 0] < boxes[:, 2]) & (boxes[:, 1] < boxes[:, 3])
        if len(quads) == len(counts) and rectangle.all():
            return boxes, np.ones(len(counts), dtype=np.int64)

        sizes = np.ones(len(counts), dtype=np.int64)
        polygons = np.ones(len(counts), dtype=bool)
        polygons[quads[rectangle]] = False
        decomposed = {}
        for index in np.flatnonzero(polygons).tolist():
            outline = coords[starts[index] : starts[index] + counts[index]].tolist()
            rows = rect_array(Polygon(tuple(Point(x, y) for x, y in outline)).to_rects())
            decomposed[index] = rows
            sizes[index] = len(rows)
        first = np.cumsum(sizes) - sizes
        out = np.empty((int(sizes.sum()), 4), dtype=np.int64)
        out[first[quads[rectangle]]] = boxes[rectangle]
        for index, rows in decomposed.items():
            out[first[index] : first[index] + len(rows)] = rows
        return out, sizes


class PackedLayout:
    """Every shape of one layout as packed outlines, the layer still open.

    The decoded form of a served request's layout: :meth:`layers` names the
    layers as :meth:`Layout.layers` would, and :meth:`outlines` packs the
    one to decompose.  Shape ids are positions in the document, as
    :meth:`Layout.from_dict` assigns them.
    """

    def __init__(self, name, layers: List[str], coords: List[int], counts: List[int]) -> None:
        self.name = name
        self._layers = layers
        self._coords = np.array(coords, dtype=np.int64).reshape(-1, 2)
        self._counts = np.array(counts, dtype=np.int64)

    def layers(self) -> List[str]:
        """Return the layer names present in the layout, sorted."""
        return sorted(set(self._layers))

    def outlines(self, layer: str) -> Outlines:
        """Pack the outlines of the shapes on ``layer``."""
        chosen = np.array([name == layer for name in self._layers], dtype=bool)
        if chosen.all():
            return Outlines(self._coords, self._counts, np.arange(len(chosen)))
        return Outlines(
            self._coords[np.repeat(chosen, self._counts)],
            self._counts[chosen],
            np.flatnonzero(chosen),
        )

    @staticmethod
    def from_layout(layout: Layout) -> "PackedLayout":
        """Pack every shape of ``layout``, in id order."""
        shapes = list(layout)
        return PackedLayout(
            layout.name,
            [shape.layer for shape in shapes],
            [c for shape in shapes for v in shape.polygon.vertices for c in (v.x, v.y)],
            [len(shape.polygon.vertices) for shape in shapes],
        )

    @staticmethod
    def from_dict(data: Dict) -> "PackedLayout":
        """Decode a :meth:`Layout.to_dict` document in one validating pass.

        Accepts and refuses what :meth:`Layout.from_dict` does, raising the
        same exception with the same message for the same first bad shape.
        """
        layers: List[str] = []
        coords: List[int] = []
        counts: List[int] = []
        for entry in data.get("shapes", []):
            rectangle = _integer_rectangle(entry)
            if rectangle is not None:
                coords.extend(rectangle)
                counts.append(4)
            else:
                polygon = Polygon.from_points(lattice_points(entry["vertices"]))
                coords.extend(c for v in polygon.vertices for c in (v.x, v.y))
                counts.append(len(polygon.vertices))
            layers.append(shape_layer(entry))
        return PackedLayout(data.get("name", "layout"), layers, coords, counts)


def _integer_rectangle(entry) -> Optional[List[int]]:
    """The eight coordinates of a well-formed integer rectangle entry.

    Returns ``None`` for anything else — every entry
    :meth:`Layout.from_dict` refuses among them — and the caller takes the
    general path.  Accepted: four ``[x, y]`` pairs of plain ints in the
    coordinate range, consecutive vertices differing in exactly one
    coordinate, enclosing a positive area.
    """
    if type(entry) is not dict:
        return None
    vertices = entry.get("vertices")
    if type(vertices) is not list or len(vertices) != 4:
        return None
    for vertex in vertices:
        if type(vertex) is not list or len(vertex) != 2:
            return None
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = vertices
    for value in (x0, y0, x1, y1, x2, y2, x3, y3):
        if type(value) is not int or not COORDINATE_MIN <= value <= COORDINATE_MAX:
            return None
    if x0 == x2 or y0 == y2:
        return None
    if (x0 == x1 and y1 == y2 and x2 == x3 and y3 == y0) or (
        y0 == y1 and x1 == x2 and y2 == y3 and x3 == x0
    ):
        return [x0, y0, x1, y1, x2, y2, x3, y3]
    return None
