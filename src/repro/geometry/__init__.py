"""Geometry kernel: points, rectangles, polygons, layouts and spacing queries."""

from repro.geometry.point import Point, as_point
from repro.geometry.rect import Rect, bounding_box, merge_touching_rects
from repro.geometry.polygon import Polygon, polygons_bbox
from repro.geometry.layout import Layout, Shape
from repro.geometry.distance import (
    in_distance_band,
    in_distance_band_rects,
    rects_squared_distance,
    within_distance,
    within_distance_rects,
)

__all__ = [
    "Point",
    "as_point",
    "Rect",
    "bounding_box",
    "merge_touching_rects",
    "Polygon",
    "polygons_bbox",
    "Layout",
    "Shape",
    "within_distance",
    "within_distance_rects",
    "in_distance_band",
    "in_distance_band_rects",
    "rects_squared_distance",
]
