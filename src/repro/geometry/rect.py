"""Axis-aligned rectangles, the workhorse primitive of the geometry kernel.

Metal and contact features in the benchmark layouts are rectilinear; every
polygon is decomposed into a small set of axis-aligned rectangles before any
distance query, so rectangle/rectangle spacing is the hot path of the
decomposition-graph construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.point import COORDINATE_MAX, COORDINATE_MIN, Point


@dataclass(frozen=True, order=True)
class Rect:
    """A closed axis-aligned rectangle ``[xl, xh] x [yl, yh]``.

    Degenerate rectangles (zero width or height) are rejected because they
    never represent printable features.
    """

    xl: int
    yl: int
    xh: int
    yh: int

    def __post_init__(self) -> None:
        if self.xl >= self.xh or self.yl >= self.yh:
            raise GeometryError(
                f"degenerate rectangle ({self.xl}, {self.yl}, {self.xh}, {self.yh}): "
                "requires xl < xh and yl < yh"
            )

    # ------------------------------------------------------------------ size
    @property
    def width(self) -> int:
        """Horizontal extent in database units."""
        return self.xh - self.xl

    @property
    def height(self) -> int:
        """Vertical extent in database units."""
        return self.yh - self.yl

    @property
    def area(self) -> int:
        """Area in square database units."""
        return self.width * self.height

    @property
    def center(self) -> Point:
        """Center point, rounded down to the grid."""
        return Point((self.xl + self.xh) // 2, (self.yl + self.yh) // 2)

    def corners(self) -> Tuple[Point, Point, Point, Point]:
        """Return the four corners in counter-clockwise order from lower-left."""
        return (
            Point(self.xl, self.yl),
            Point(self.xh, self.yl),
            Point(self.xh, self.yh),
            Point(self.xl, self.yh),
        )

    # ----------------------------------------------------------- predicates
    def contains_point(self, point: Point, strict: bool = False) -> bool:
        """Return True if ``point`` lies inside the rectangle.

        With ``strict=True`` the boundary is excluded.
        """
        if strict:
            return self.xl < point.x < self.xh and self.yl < point.y < self.yh
        return self.xl <= point.x <= self.xh and self.yl <= point.y <= self.yh

    def contains_rect(self, other: "Rect") -> bool:
        """Return True if ``other`` lies fully inside (or equals) this rectangle."""
        return (
            self.xl <= other.xl
            and self.yl <= other.yl
            and self.xh >= other.xh
            and self.yh >= other.yh
        )

    def intersects(self, other: "Rect", strict: bool = False) -> bool:
        """Return True if the rectangles share area (or touch, when not strict).

        ``strict=True`` requires a positive-area overlap; the default also
        counts shared edges/corners as intersecting.
        """
        if strict:
            return (
                self.xl < other.xh
                and other.xl < self.xh
                and self.yl < other.yh
                and other.yl < self.yh
            )
        return (
            self.xl <= other.xh
            and other.xl <= self.xh
            and self.yl <= other.yh
            and other.yl <= self.yh
        )

    def touches(self, other: "Rect") -> bool:
        """Return True if the rectangles touch but do not overlap in area."""
        return self.intersects(other, strict=False) and not self.intersects(
            other, strict=True
        )

    # ----------------------------------------------------------- operations
    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """Return the overlap rectangle, or None when the overlap has no area."""
        xl = max(self.xl, other.xl)
        yl = max(self.yl, other.yl)
        xh = min(self.xh, other.xh)
        yh = min(self.yh, other.yh)
        if xl >= xh or yl >= yh:
            return None
        return Rect(xl, yl, xh, yh)

    def union_bbox(self, other: "Rect") -> "Rect":
        """Return the bounding box of both rectangles."""
        return Rect(
            min(self.xl, other.xl),
            min(self.yl, other.yl),
            max(self.xh, other.xh),
            max(self.yh, other.yh),
        )

    def bloated(self, margin: int) -> "Rect":
        """Return the rectangle grown by ``margin`` on every side.

        A negative margin shrinks the rectangle; shrinking past the center
        raises :class:`GeometryError`.
        """
        return Rect(
            self.xl - margin, self.yl - margin, self.xh + margin, self.yh + margin
        )

    def translated(self, dx: int, dy: int) -> "Rect":
        """Return a copy shifted by ``(dx, dy)``."""
        return Rect(self.xl + dx, self.yl + dy, self.xh + dx, self.yh + dy)

    def split_vertical(self, x: int) -> Tuple["Rect", "Rect"]:
        """Split into a left and right rectangle at coordinate ``x``.

        ``x`` must lie strictly inside the horizontal span.
        """
        if not (self.xl < x < self.xh):
            raise GeometryError(f"split coordinate {x} outside ({self.xl}, {self.xh})")
        return Rect(self.xl, self.yl, x, self.yh), Rect(x, self.yl, self.xh, self.yh)

    def split_horizontal(self, y: int) -> Tuple["Rect", "Rect"]:
        """Split into a bottom and top rectangle at coordinate ``y``.

        ``y`` must lie strictly inside the vertical span.
        """
        if not (self.yl < y < self.yh):
            raise GeometryError(f"split coordinate {y} outside ({self.yl}, {self.yh})")
        return Rect(self.xl, self.yl, self.xh, y), Rect(self.xl, y, self.xh, self.yh)

    # ------------------------------------------------------------ distances
    def gap_vector(self, other: "Rect") -> Tuple[int, int]:
        """Return the per-axis gap ``(dx, dy)`` between the rectangles.

        Each component is 0 when the projections on that axis overlap.
        """
        dx = max(other.xl - self.xh, self.xl - other.xh, 0)
        dy = max(other.yl - self.yh, self.yl - other.yh, 0)
        return dx, dy

    def distance(self, other: "Rect") -> float:
        """Return the Euclidean spacing between the two rectangles.

        Zero when the rectangles touch or overlap.
        """
        dx, dy = self.gap_vector(other)
        if dx == 0:
            return float(dy)
        if dy == 0:
            return float(dx)
        return math.hypot(dx, dy)

    def squared_distance(self, other: "Rect") -> int:
        """Return the exact squared Euclidean spacing (integer)."""
        dx, dy = self.gap_vector(other)
        return dx * dx + dy * dy

    def distance_to_point(self, point: Point) -> float:
        """Return the Euclidean distance from ``point`` to this rectangle."""
        dx = max(self.xl - point.x, point.x - self.xh, 0)
        dy = max(self.yl - point.y, point.y - self.yh, 0)
        if dx == 0:
            return float(dy)
        if dy == 0:
            return float(dx)
        return math.hypot(dx, dy)


def bounding_box(rects: Iterable[Rect]) -> Rect:
    """Return the bounding box of a non-empty iterable of rectangles."""
    rects = list(rects)
    if not rects:
        raise GeometryError("bounding_box() of an empty collection")
    return Rect(
        min(r.xl for r in rects),
        min(r.yl for r in rects),
        max(r.xh for r in rects),
        max(r.yh for r in rects),
    )


def rect_array(rects: Sequence[Rect]) -> np.ndarray:
    """Return ``rects`` as an int64 ``(n, 4)`` array of ``(xl, yl, xh, yh)`` rows.

    Raises :class:`GeometryError` for a coordinate outside the signed 32-bit
    range (:data:`~repro.geometry.point.COORDINATE_MIN` ..
    :data:`~repro.geometry.point.COORDINATE_MAX`), the range in which the
    array computations on the result stay exact.
    """
    try:
        boxes = np.array(
            [(r.xl, r.yl, r.xh, r.yh) for r in rects], dtype=np.int64
        ).reshape(-1, 4)
        inside = not boxes.size or (
            boxes.min() >= COORDINATE_MIN and boxes.max() <= COORDINATE_MAX
        )
    except OverflowError:  # beyond int64
        inside = False
    if not inside:
        raise GeometryError(
            f"rectangle coordinate outside the signed 32-bit range "
            f"{COORDINATE_MIN}..{COORDINATE_MAX}"
        )
    return boxes


def merge_touching_rects(rects: List[Rect]) -> List[Rect]:
    """Greedily merge rectangles that can be joined into a single rectangle.

    Two rectangles merge when their union is itself a rectangle (same vertical
    span and abutting/overlapping horizontally, or vice versa).  Used to keep
    polygon decompositions small before distance queries.
    """
    merged = list(rects)
    changed = True
    while changed:
        changed = False
        out: List[Rect] = []
        used = [False] * len(merged)
        for i, a in enumerate(merged):
            if used[i]:
                continue
            current = a
            for j in range(i + 1, len(merged)):
                if used[j]:
                    continue
                b = merged[j]
                combined = _try_merge(current, b)
                if combined is not None:
                    current = combined
                    used[j] = True
                    changed = True
            used[i] = True
            out.append(current)
        merged = out
    return merged


def _try_merge(a: Rect, b: Rect) -> Optional[Rect]:
    """Return the union of ``a`` and ``b`` if it is exactly a rectangle."""
    if a.yl == b.yl and a.yh == b.yh and a.xl <= b.xh and b.xl <= a.xh:
        return Rect(min(a.xl, b.xl), a.yl, max(a.xh, b.xh), a.yh)
    if a.xl == b.xl and a.xh == b.xh and a.yl <= b.yh and b.yl <= a.yh:
        return Rect(a.xl, min(a.yl, b.yl), a.xh, max(a.yh, b.yh))
    if a.contains_rect(b):
        return a
    if b.contains_rect(a):
        return b
    return None
