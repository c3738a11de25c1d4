"""Spacing predicates between layout features.

The decomposition-graph construction asks two questions for every nearby pair
of features:

* is the spacing strictly smaller than the minimum coloring distance
  ``min_s`` (conflict edge)?
* is the spacing inside ``(min_s, min_s + half_pitch)`` (color-friendly pair,
  Definition 2 of the paper)?

Both predicates are answered exactly with integer arithmetic by comparing
squared distances, avoiding any floating-point threshold effects right at the
design rule boundary.  :func:`close_rect_pairs` answers them for a whole
layer at once, on int64 arrays.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect


def rects_squared_distance(first: Sequence[Rect], second: Sequence[Rect]) -> int:
    """Return the squared spacing between two rectangle sets (0 if touching)."""
    best: int | None = None
    for a in first:
        for b in second:
            d = a.squared_distance(b)
            if best is None or d < best:
                best = d
                if best == 0:
                    return 0
    if best is None:
        raise ValueError("distance between empty rectangle sets")
    return best


def within_distance(first: Polygon, second: Polygon, limit: int) -> bool:
    """Return True if the polygons are strictly closer than ``limit``.

    Touching or overlapping polygons (distance 0) count as within distance.
    """
    return first.squared_distance(second) < limit * limit


def within_distance_rects(
    first: Sequence[Rect], second: Sequence[Rect], limit: int
) -> bool:
    """Rectangle-set variant of :func:`within_distance`."""
    return rects_squared_distance(first, second) < limit * limit


def in_distance_band(
    first: Polygon, second: Polygon, lower: int, upper: int
) -> bool:
    """Return True if the spacing lies in the half-open band ``[lower, upper)``.

    Used for the color-friendly rule: ``lower = min_s`` and
    ``upper = min_s + half_pitch``.
    """
    d2 = first.squared_distance(second)
    return lower * lower <= d2 < upper * upper


def in_distance_band_rects(
    first: Sequence[Rect], second: Sequence[Rect], lower: int, upper: int
) -> bool:
    """Rectangle-set variant of :func:`in_distance_band`."""
    d2 = rects_squared_distance(first, second)
    return lower * lower <= d2 < upper * upper


def close_rect_pairs(
    boxes: np.ndarray,
    owners: np.ndarray,
    radius: int,
    groups: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return every pair of owners whose rectangles come closer than ``radius``.

    ``boxes`` is an int64 ``(n, 4)`` array of ``(xl, yl, xh, yh)`` rows and
    ``owners[i]`` the non-negative owner of row ``i``; two rows of one group
    (``groups``, by default ``owners``; all rows of an owner share its group)
    are never paired.  Returns three int64 arrays ``(a, b, d2)`` sorted by
    ``(a, b)``: owner pairs ``a < b`` and their exact minimum squared
    spacing ``d2 < radius**2`` over all their row pairs.

    Two closed intervals lie less than ``radius`` apart exactly when the
    half-open intervals ``[lo, hi + radius)`` overlap.  Rows are binned into
    horizontal strips by that extended y-range and each strip is swept
    along x: a row pairs with the rows after it, in ``xl`` order, that start
    before its ``xh + radius``.  A pair is kept only in the strip holding
    ``max(yl)``, which both rows' extended ranges contain, so it is seen
    once.  Both per-axis gaps are below ``radius`` before anything is
    squared; with coordinates and ``radius`` inside the signed 32-bit range
    every value stays exact in int64.
    """
    empty = np.zeros(0, dtype=np.int64)
    count = len(boxes)
    if count < 2:
        return empty, empty, empty
    if groups is None:
        groups = owners
    xl, yl, xh, yh = np.ascontiguousarray(boxes.T)
    heights = yh - yl
    # The median height plus the radius.  The mean term keeps a few tall
    # rows from joining millions of strips; the extent term caps the strip
    # count at 2**29, so a strip index times the x extent fits int64.
    strip = radius + max(
        int(heights[np.argsort(heights)[count // 2]]),
        int(heights.sum()) // (4 * count),
        (int(yh.max()) - int(yl.min())) >> 29,
    )

    # One membership per (row, strip its extended y-range meets); strips
    # become consecutive ranges of one sort key.
    first = yl // strip
    span = (yh + (radius - 1)) // strip - first + 1
    row = np.repeat(np.arange(count), span)
    memberships = len(row)
    starts = np.cumsum(span) - span
    band = first[row] + np.arange(memberships) - np.repeat(starts, span)
    x0 = int(xl.min())
    offset = (band - int(first.min())) * (int(xh.max()) + radius - x0 + 1) - x0
    key = offset + xl[row]
    order = np.argsort(key)
    row, band, key, offset = row[order], band[order], key[order], offset[order]

    # Sweep: each membership pairs with the later ones of its strip that
    # start before its x-reach, which one searchsorted finds for all.
    after = np.arange(1, memberships + 1)
    later = np.searchsorted(key, offset + xh[row] + radius) - after
    left = np.repeat(np.arange(memberships), later)
    right = np.arange(len(left)) + np.repeat(after - (np.cumsum(later) - later), later)
    a, b = row[left], row[right]
    keep = (
        (groups[a] != groups[b])
        & (yl[b] < yh[a] + radius)
        & (yl[a] < yh[b] + radius)
        & (band[left] == np.maximum(yl[a], yl[b]) // strip)
    )
    a, b = a[keep], b[keep]

    dx = np.maximum(np.maximum(xl[b] - xh[a], xl[a] - xh[b]), 0)
    dy = np.maximum(np.maximum(yl[b] - yh[a], yl[a] - yh[b]), 0)
    d2 = dx * dx + dy * dy
    close = d2 < radius * radius
    if not close.any():
        return empty, empty, empty
    a, b, d2 = owners[a[close]], owners[b[close]], d2[close]
    low, high = np.minimum(a, b), np.maximum(a, b)
    pair = low * (int(owners.max()) + 1) + high
    order = np.argsort(pair)
    pair = pair[order]
    heads = np.flatnonzero(np.concatenate(([True], pair[1:] != pair[:-1])))
    nearest = order[heads]
    return low[nearest], high[nearest], np.minimum.reduceat(d2[order], heads)
