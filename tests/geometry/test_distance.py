"""Unit tests for the spacing predicates in repro.geometry.distance."""

import itertools
import random

import numpy as np
import pytest

from repro.geometry.distance import (
    close_rect_pairs,
    in_distance_band,
    in_distance_band_rects,
    rects_squared_distance,
    within_distance,
    within_distance_rects,
)
from repro.geometry.point import COORDINATE_MAX, COORDINATE_MIN
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect


def poly(xl, yl, xh, yh):
    return Polygon.from_rect(Rect(xl, yl, xh, yh))


class TestRectSetDistance:
    def test_minimum_over_sets(self):
        first = [Rect(0, 0, 10, 10), Rect(100, 0, 110, 10)]
        second = [Rect(40, 0, 50, 10)]
        # closest pair is (100..110) vs (40..50): gap 50; and (0..10) vs 40: gap 30
        assert rects_squared_distance(first, second) == 30 * 30

    def test_zero_when_overlapping(self):
        assert rects_squared_distance([Rect(0, 0, 10, 10)], [Rect(5, 5, 8, 8)]) == 0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            rects_squared_distance([], [Rect(0, 0, 1, 1)])


class TestWithinDistance:
    def test_strictly_within(self):
        a, b = poly(0, 0, 20, 20), poly(60, 0, 80, 20)  # spacing 40
        assert within_distance(a, b, 41)
        assert not within_distance(a, b, 40)  # strict comparison at the rule edge

    def test_touching_counts(self):
        a, b = poly(0, 0, 20, 20), poly(20, 0, 40, 20)
        assert within_distance(a, b, 1)

    def test_rect_variant_matches(self):
        a, b = poly(0, 0, 20, 20), poly(60, 0, 80, 20)
        assert within_distance_rects(a.to_rects(), b.to_rects(), 41)
        assert not within_distance_rects(a.to_rects(), b.to_rects(), 40)


class TestDistanceBand:
    def test_inside_band(self):
        a, b = poly(0, 0, 20, 20), poly(110, 0, 130, 20)  # spacing 90
        assert in_distance_band(a, b, 80, 100)

    def test_below_band(self):
        a, b = poly(0, 0, 20, 20), poly(60, 0, 80, 20)  # spacing 40
        assert not in_distance_band(a, b, 80, 100)

    def test_at_lower_edge_included(self):
        a, b = poly(0, 0, 20, 20), poly(100, 0, 120, 20)  # spacing exactly 80
        assert in_distance_band(a, b, 80, 100)

    def test_at_upper_edge_excluded(self):
        a, b = poly(0, 0, 20, 20), poly(120, 0, 140, 20)  # spacing exactly 100
        assert not in_distance_band(a, b, 80, 100)

    def test_rect_variant(self):
        a, b = poly(0, 0, 20, 20), poly(110, 0, 130, 20)
        assert in_distance_band_rects(a.to_rects(), b.to_rects(), 80, 100)


def _boxes(rects):
    rows = [(r.xl, r.yl, r.xh, r.yh) for r in rects]
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


class TestCloseRectPairs:
    def test_minimum_squared_spacing_per_owner_pair(self):
        rects = [
            Rect(0, 0, 100, 20),     # owner 0
            Rect(0, 60, 40, 80),     # owner 1: 40 above owner 0
            Rect(200, 30, 240, 40),  # owner 1: diagonal (100, 10) from owner 0
            Rect(500, 500, 510, 510),  # owner 2: far from everything
        ]
        low, high, d2 = close_rect_pairs(_boxes(rects), np.array([0, 1, 1, 2]), 80)
        assert low.tolist() == [0] and high.tolist() == [1]
        assert d2.tolist() == [40 * 40]

    def test_groups_are_never_paired(self):
        rects = [Rect(0, 0, 10, 10), Rect(20, 0, 30, 10), Rect(40, 0, 50, 10)]
        owners = np.array([0, 1, 2])
        low, high, _ = close_rect_pairs(_boxes(rects), owners, 15, np.array([0, 0, 1]))
        assert list(zip(low.tolist(), high.tolist())) == [(1, 2)]

    def test_radius_is_strict_and_touching_is_zero(self):
        rects = [Rect(0, 0, 10, 10), Rect(10, 0, 20, 10), Rect(0, 30, 10, 40)]
        low, high, d2 = close_rect_pairs(_boxes(rects), np.array([0, 1, 2]), 20)
        assert list(zip(low.tolist(), high.tolist(), d2.tolist())) == [(0, 1, 0)]

    def test_tall_rows_span_many_strips(self):
        """A row far taller than the strip height is still found from every
        strip its range meets, and each pair is reported once."""
        rects = [Rect(0, 0, 10, 10_000)] + [
            Rect(30, y, 40, y + 10) for y in range(0, 10_000, 500)
        ]
        owners = np.arange(len(rects))
        low, high, d2 = close_rect_pairs(_boxes(rects), owners, 25)
        assert low.tolist() == [0] * (len(rects) - 1)
        assert high.tolist() == list(range(1, len(rects)))
        assert set(d2.tolist()) == {400}

    @pytest.mark.parametrize("radius", [1, 1000, 2**30, COORDINATE_MAX])
    def test_exact_at_the_ends_of_the_coordinate_range(self, radius):
        """Coordinates at both ends of the 32-bit range, rows one or two
        units tall and a radius up to COORDINATE_MAX stay exact in the int64
        passes."""
        rng = random.Random(3)
        corners = [COORDINATE_MIN, COORDINATE_MIN + 5, COORDINATE_MAX - 10, 0]
        rects = []
        for _ in range(40):
            x = rng.choice(corners + [rng.randint(COORDINATE_MIN, COORDINATE_MAX - 10)])
            y = rng.choice(corners + [rng.randint(COORDINATE_MIN, COORDINATE_MAX - 10)])
            rects.append(Rect(x, y, x + rng.randint(1, 2), y + rng.randint(1, 2)))
        low, high, d2 = close_rect_pairs(_boxes(rects), np.arange(len(rects)), radius)
        expected = [
            (i, j, a.squared_distance(b))
            for (i, a), (j, b) in itertools.combinations(enumerate(rects), 2)
            if a.squared_distance(b) < radius * radius
        ]
        assert list(zip(low.tolist(), high.tolist(), d2.tolist())) == expected

    def test_strip_keys_fit_int64_across_the_whole_range(self):
        """Unit rows spread over the full 32-bit extent with radius 1 make
        2-unit strips; without the cap on the strip count the top strip's
        sort keys would pass 2**63."""
        low_end, top = COORDINATE_MIN, COORDINATE_MAX - 1
        rects = [
            Rect(low_end, low_end, low_end + 1, low_end + 1),
            Rect(top, low_end, top + 1, low_end + 1),
        ]
        for x in (COORDINATE_MIN + 2, 0, COORDINATE_MAX - 3):
            rects += [Rect(x, top, x + 1, top + 1), Rect(x + 1, top, x + 2, top + 1)]
        low, high, d2 = close_rect_pairs(_boxes(rects), np.arange(len(rects)), 1)
        assert list(zip(low.tolist(), high.tolist(), d2.tolist())) == [
            (2, 3, 0), (4, 5, 0), (6, 7, 0)
        ]

    def test_fewer_than_two_rows(self):
        low, high, d2 = close_rect_pairs(_boxes([Rect(0, 0, 1, 1)]), np.array([0]), 5)
        assert len(low) == len(high) == len(d2) == 0
