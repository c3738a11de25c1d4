"""Property-based tests for the geometry kernel."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect, bounding_box, merge_touching_rects

coordinates = st.integers(min_value=-10_000, max_value=10_000)
sizes = st.integers(min_value=1, max_value=500)


@st.composite
def rects(draw):
    x = draw(coordinates)
    y = draw(coordinates)
    w = draw(sizes)
    h = draw(sizes)
    return Rect(x, y, x + w, y + h)


@st.composite
def staircase_polygons(draw):
    """Monotone staircase polygons: always simple and rectilinear."""
    steps = draw(st.lists(st.tuples(sizes, sizes), min_size=1, max_size=5))
    points = [(0, 0)]
    x = 0
    total_height = sum(h for _, h in steps)
    y = 0
    for width, height in steps:
        x += width
        points.append((x, y))
        y += height
        points.append((x, y))
    points.append((0, total_height))
    return Polygon.from_points(points)


class TestRectProperties:
    @given(rects(), rects())
    def test_distance_symmetry(self, a, b):
        assert a.squared_distance(b) == b.squared_distance(a)
        assert a.distance(b) == b.distance(a)

    @given(rects(), rects())
    def test_distance_matches_squared(self, a, b):
        assert math.isclose(a.distance(b) ** 2, a.squared_distance(b), rel_tol=1e-9)

    @given(rects(), rects())
    def test_zero_distance_iff_intersecting(self, a, b):
        assert (a.squared_distance(b) == 0) == a.intersects(b)

    @given(rects(), st.integers(min_value=0, max_value=200))
    def test_bloat_contains_original(self, r, margin):
        assert r.bloated(margin).contains_rect(r)

    @given(rects(), rects(), coordinates, coordinates)
    def test_distance_translation_invariant(self, a, b, dx, dy):
        assert a.squared_distance(b) == a.translated(dx, dy).squared_distance(
            b.translated(dx, dy)
        )

    @given(rects(), rects())
    def test_union_bbox_contains_both(self, a, b):
        box = a.union_bbox(b)
        assert box.contains_rect(a) and box.contains_rect(b)

    @given(st.lists(rects(), min_size=1, max_size=8))
    def test_merge_preserves_bbox(self, rect_list):
        merged = merge_touching_rects(rect_list)
        assert bounding_box(merged) == bounding_box(rect_list)
        assert len(merged) <= len(rect_list)


class TestPolygonProperties:
    @given(staircase_polygons())
    def test_decomposition_area_matches_shoelace(self, polygon):
        rects = polygon.to_rects()
        assert sum(r.area for r in rects) == polygon.area

    @given(staircase_polygons())
    def test_decomposition_stays_inside_bbox(self, polygon):
        bbox = polygon.bbox
        for rect in polygon.to_rects():
            assert bbox.contains_rect(rect)

    @given(staircase_polygons(), coordinates, coordinates)
    def test_translation_preserves_area(self, polygon, dx, dy):
        assert polygon.translated(dx, dy).area == polygon.area
