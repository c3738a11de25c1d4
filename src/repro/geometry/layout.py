"""Layout containers: shapes, layers and the full-chip feature collection.

A :class:`Layout` is the input of the decomposition flow (Fig. 2 of the
paper): a bag of polygonal features on named layers, in integer database
units.  The decomposer only looks at a single layer at a time (Metal1 or a
contact layer in the paper's benchmarks), but the container supports several
layers so the same object can also carry the output masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

from repro.errors import LayoutError, LayoutIOError
from repro.geometry.point import COORDINATE_MAX, COORDINATE_MIN, Point, as_point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect, bounding_box


@dataclass(frozen=True)
class Shape:
    """A single layout feature.

    Attributes
    ----------
    shape_id:
        Unique integer identifier inside one :class:`Layout`.
    layer:
        Layer name the feature lives on (e.g. ``"metal1"``).
    polygon:
        Feature geometry.
    """

    shape_id: int
    layer: str
    polygon: Polygon

    @property
    def bbox(self) -> Rect:
        """Bounding box of the feature geometry."""
        return self.polygon.bbox

    def rects(self) -> List[Rect]:
        """Rectangle decomposition of the feature geometry."""
        return self.polygon.to_rects()


class Layout:
    """A collection of shapes grouped by layer.

    Parameters
    ----------
    name:
        Free-form design name (circuit name for the benchmarks).
    dbu_per_nm:
        Database units per nanometre.  The default of 1 means coordinates are
        nanometres; the GDSII reader sets this from the stream's UNITS record.
    """

    def __init__(self, name: str = "layout", dbu_per_nm: float = 1.0) -> None:
        self.name = name
        self.dbu_per_nm = dbu_per_nm
        self._shapes: Dict[int, Shape] = {}
        self._layers: Dict[str, List[int]] = {}
        self._next_id = 0

    # -------------------------------------------------------------- mutation
    def add_polygon(self, polygon: Polygon, layer: str = "metal1") -> Shape:
        """Add a polygon feature and return the created :class:`Shape`."""
        shape = Shape(self._next_id, layer, polygon)
        self._shapes[shape.shape_id] = shape
        self._layers.setdefault(layer, []).append(shape.shape_id)
        self._next_id += 1
        return shape

    def add_rect(self, rect: Rect, layer: str = "metal1") -> Shape:
        """Add a rectangular feature and return the created :class:`Shape`."""
        return self.add_polygon(Polygon.from_rect(rect), layer)

    def add_rect_xy(
        self, xl: int, yl: int, xh: int, yh: int, layer: str = "metal1"
    ) -> Shape:
        """Convenience wrapper adding a rectangle from raw coordinates."""
        return self.add_rect(Rect(xl, yl, xh, yh), layer)

    def remove_shape(self, shape_id: int) -> None:
        """Remove a shape by id.  Raises :class:`LayoutError` if unknown."""
        shape = self._shapes.pop(shape_id, None)
        if shape is None:
            raise LayoutError(f"unknown shape id {shape_id}")
        self._layers[shape.layer].remove(shape_id)

    # --------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._shapes)

    def __iter__(self) -> Iterator[Shape]:
        return iter(self._shapes.values())

    def __contains__(self, shape_id: int) -> bool:
        return shape_id in self._shapes

    def shape(self, shape_id: int) -> Shape:
        """Return the shape with the given id."""
        try:
            return self._shapes[shape_id]
        except KeyError as exc:
            raise LayoutError(f"unknown shape id {shape_id}") from exc

    def layers(self) -> List[str]:
        """Return the layer names present in the layout, sorted."""
        return sorted(self._layers)

    def shapes_on_layer(self, layer: str) -> List[Shape]:
        """Return the shapes on ``layer`` in insertion order."""
        return [self._shapes[i] for i in self._layers.get(layer, [])]

    def count_on_layer(self, layer: str) -> int:
        """Return the number of shapes on ``layer``."""
        return len(self._layers.get(layer, []))

    def bbox(self, layer: Optional[str] = None) -> Rect:
        """Return the bounding box of the layout (optionally of one layer)."""
        shapes: Iterable[Shape]
        if layer is None:
            shapes = self._shapes.values()
        else:
            shapes = self.shapes_on_layer(layer)
        shapes = list(shapes)
        if not shapes:
            raise LayoutError("bounding box of an empty layout")
        return bounding_box(s.bbox for s in shapes)

    # ------------------------------------------------------------- serialise
    def to_dict(self) -> Dict:
        """Serialise the layout to a JSON-compatible dictionary."""
        return {
            "name": self.name,
            "dbu_per_nm": self.dbu_per_nm,
            "shapes": [
                {
                    "id": s.shape_id,
                    "layer": s.layer,
                    "vertices": [v.as_tuple() for v in s.polygon.vertices],
                }
                for s in self
            ],
        }

    @staticmethod
    def from_dict(data: Dict) -> "Layout":
        """Rebuild a layout from :meth:`to_dict` output.

        Raises :class:`LayoutIOError` for a shape whose ``layer`` is not a
        string, since layer names must sort against each other, and for a
        vertex coordinate that is not finite or that rounds outside the
        signed 32-bit range a GDSII XY record holds.
        """
        layout = Layout(
            name=data.get("name", "layout"),
            dbu_per_nm=data.get("dbu_per_nm", 1.0),
        )
        for entry in data.get("shapes", []):
            polygon = Polygon.from_points(lattice_points(entry["vertices"]))
            layout.add_polygon(polygon, shape_layer(entry))
        return layout

    # ----------------------------------------------------------------- stats
    def statistics(self, layer: Optional[str] = None) -> Dict[str, float]:
        """Return simple feature statistics used by the workload reports."""
        shapes = list(self) if layer is None else self.shapes_on_layer(layer)
        if not shapes:
            return {"shapes": 0, "area": 0, "density": 0.0}
        total_area = sum(s.polygon.area for s in shapes)
        box = bounding_box(s.bbox for s in shapes)
        return {
            "shapes": len(shapes),
            "area": total_area,
            "density": total_area / box.area if box.area else 0.0,
            "bbox_width": box.width,
            "bbox_height": box.height,
        }


def shape_layer(entry: Dict) -> str:
    """Return a JSON shape entry's ``layer`` (default ``metal1``).

    Raises :class:`LayoutIOError` unless it is a string, since layer names
    must sort against each other.
    """
    layer = entry.get("layer", "metal1")
    if not isinstance(layer, str):
        raise LayoutIOError(f"shape layer must be a string, got {layer!r}")
    return layer


#: What :func:`lattice_points` says about a coordinate no GDSII XY record holds.
OUT_OF_RANGE_MESSAGE = (
    f"vertex coordinate outside the signed 32-bit range "
    f"{COORDINATE_MIN}..{COORDINATE_MAX} of GDSII coordinates"
)


def lattice_points(vertices) -> List[Point]:
    """Round JSON vertices onto the lattice, in the range GDSII XY records hold.

    Raises :class:`LayoutIOError` for a coordinate that is not finite, a
    vertex that is not a pair, or a coordinate outside
    :data:`~repro.geometry.point.COORDINATE_MIN` ..
    :data:`~repro.geometry.point.COORDINATE_MAX`.
    """
    try:
        points = [as_point(vertex) for vertex in vertices]
    except (OverflowError, ValueError) as exc:
        raise LayoutIOError(f"invalid vertex coordinates: {exc}") from None
    for point in points:
        if not (
            COORDINATE_MIN <= point.x <= COORDINATE_MAX
            and COORDINATE_MIN <= point.y <= COORDINATE_MAX
        ):
            raise LayoutIOError(OUT_OF_RANGE_MESSAGE)
    return points
