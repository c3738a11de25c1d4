"""Stitch candidate generation.

A *stitch* splits one layout feature into two fragments that may be printed on
different masks; the fragments overlap slightly in manufacturing, so a stitch
costs yield and is penalised (weight ``alpha`` in the objective) but can
remove an otherwise unavoidable conflict.

Candidate positions follow the projection rule used by the triple-patterning
decomposers the paper builds on: project every conflicting neighbour onto the
long axis of the feature; a position is a legal stitch candidate only where no
neighbour projection covers the feature, and only when both resulting
fragments keep a minimum printable length.  :func:`stitch_positions` finds
them for every feature of a layer in one pass over arrays, and
:func:`split_rows` cuts every split feature's rectangles in another;
:func:`find_stitch_candidates` and :func:`split_feature` are their
one-feature forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.point import COORDINATE_MAX
from repro.geometry.rect import Rect, bounding_box, rect_array


@dataclass(frozen=True)
class StitchCandidate:
    """A legal stitch position on a feature.

    Attributes
    ----------
    position:
        Cut coordinate along the feature's long axis.
    horizontal:
        True when the feature's long axis is x (the cut line is vertical).
    """

    position: int
    horizontal: bool


def stitch_positions(
    feature_boxes: np.ndarray,
    owners: np.ndarray,
    neighbour_boxes: np.ndarray,
    min_fragment_length: int,
    projection_margin: int = 0,
    max_candidates: int = 2,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return the legal stitch positions of many features at once.

    ``feature_boxes`` is an int64 ``(f, 4)`` array of feature bounding boxes
    ``(xl, yl, xh, yh)``; ``neighbour_boxes`` holds one row per rectangle of
    a conflicting neighbour, projected onto the cut axis of feature
    ``owners[row]``.  Returns ``(features, positions, horizontal)``: the
    candidates as parallel arrays sorted by feature then position, and each
    feature's cut axis (True when the long axis is x).

    Per feature, the projections (widened by ``projection_margin``) are
    swept by their low ends.  A cursor starts at the feature's low end
    and follows the largest high end seen so far; a projection starting
    past the cursor leaves a gap before it, and a last gap runs from the
    cursor to the feature's high end.  Gaps are clipped to the window that
    leaves both fragments ``min_fragment_length`` long; each non-empty one
    offers its midpoint, and the ``max_candidates`` widest win (ties to the
    lower position).  Two sentinel rows per feature carry the cursor start
    and close the last gap, so every feature's sweep is one run of the same
    segmented running maximum.  Projections sharing a low end leave at most
    one gap whatever their order, since the first one moves the cursor past
    the shared low end; that needs ``projection_margin >= 0``, and
    :class:`ConfigurationError` refuses a negative one.
    """
    for name, value in (
        ("min_fragment_length", min_fragment_length),
        ("projection_margin", projection_margin),
    ):
        if not 0 <= value <= COORDINATE_MAX:
            raise ConfigurationError(
                f"{name} must lie in 0..{COORDINATE_MAX}, got {value}"
            )
    empty = np.zeros(0, dtype=np.int64)
    count = len(feature_boxes)
    fxl, fyl, fxh, fyh = np.ascontiguousarray(feature_boxes.T).reshape(4, count)
    horizontal = fxh - fxl >= fyh - fyl
    lo = np.where(horizontal, fxl, fyl)
    hi = np.where(horizontal, fxh, fyh)
    if not count or max_candidates <= 0:
        return empty, empty, horizontal

    nxl, nyl, nxh, nyh = np.ascontiguousarray(neighbour_boxes.T).reshape(4, -1)
    along = horizontal[owners]
    start = np.where(along, nxl, nyl) - projection_margin
    end = np.where(along, nxh, nyh) + projection_margin
    below = int(min(start.min(initial=0), lo.min())) - 1
    above = int(max(start.max(initial=0), hi.max())) + 1
    every = np.arange(count)
    feature = np.concatenate((owners, every, every))
    start = np.concatenate((start, np.full(count, below), np.full(count, above)))
    end = np.concatenate((end, lo, hi))
    order = np.argsort(feature * (above - below + 1) + (start - below))
    feature, start, end = feature[order], start[order], end[order]

    # Running maximum of ``end`` inside each feature's run: lifting run k by
    # k * spread puts it above every earlier run.
    base = int(end.min())
    lift = feature * (int(end.max()) - base + 1)
    cursor = np.maximum.accumulate(lift + (end - base)) - lift + base

    gap = np.flatnonzero(feature[1:] == feature[:-1]) + 1
    owner = feature[gap]
    gap_lo = np.maximum(cursor[gap - 1], lo[owner] + min_fragment_length)
    gap_hi = np.minimum(start[gap], hi[owner] - min_fragment_length)
    legal = gap_hi > gap_lo
    owner, gap_lo, gap_hi = owner[legal], gap_lo[legal], gap_hi[legal]
    if not len(owner):
        return empty, empty, horizontal
    position = (gap_lo + gap_hi) // 2

    # Gaps come out disjoint and in position order per feature, so a stable
    # sort by (feature, widest first) breaks width ties to the lower position.
    width = gap_hi - gap_lo
    order = np.argsort(owner * (int(width.max()) + 1) - width, kind="stable")
    rank = np.arange(len(order)) - np.searchsorted(owner[order], owner[order])
    chosen = np.zeros(len(owner), dtype=bool)
    chosen[order[rank < max_candidates]] = True
    return owner[chosen], position[chosen], horizontal


def find_stitch_candidates(
    feature_rects: Sequence[Rect],
    neighbour_rects: Iterable[Sequence[Rect]],
    min_fragment_length: int,
    projection_margin: int = 0,
    max_candidates: int = 2,
) -> List[StitchCandidate]:
    """Return legal stitch candidates for one feature.

    A one-feature call of :func:`stitch_positions`.

    Parameters
    ----------
    feature_rects:
        Rectangle decomposition of the feature.
    neighbour_rects:
        Rectangle decompositions of every conflicting neighbour.
    min_fragment_length:
        Minimum length (along the cut axis) each fragment must keep — in the
        paper's technology this is the minimum feature width ``w_m``.
    projection_margin:
        Extra margin added to each neighbour projection; a positive value
        keeps stitches further away from conflict regions.
    max_candidates:
        Upper bound on returned candidates (the widest gaps win).
    """
    if not feature_rects:
        return []
    box = bounding_box(feature_rects)
    rects = [rect for rects in neighbour_rects for rect in rects]
    _, positions, horizontal = stitch_positions(
        rect_array([box]),
        np.zeros(len(rects), dtype=np.int64),
        rect_array(rects),
        min_fragment_length,
        projection_margin,
        max_candidates,
    )
    across = bool(horizontal[0])
    return [StitchCandidate(position, across) for position in positions.tolist()]


def split_feature(
    feature_rects: Sequence[Rect], candidates: Sequence[StitchCandidate]
) -> List[List[Rect]]:
    """Split a feature's rectangles at the given stitch positions.

    Returns the fragments ordered along the cut axis; consecutive fragments
    share a stitch edge in the decomposition graph.  With no candidates the
    single original fragment is returned.  A one-feature call of
    :func:`split_rows`.
    """
    if not candidates:
        return [list(feature_rects)]
    positions = sorted({c.position for c in candidates})
    count = len(feature_rects)
    pieces, _, slots = split_rows(
        rect_array(feature_rects),
        np.full(count, candidates[0].horizontal),
        np.repeat(np.arange(count), len(positions)),
        np.tile(np.array(positions, dtype=np.int64), count),
    )
    fragments: Dict[int, List[Rect]] = {}
    order = np.argsort(slots, kind="stable")
    for slot, row in zip(slots[order].tolist(), pieces[order].tolist()):
        fragments.setdefault(slot, []).append(Rect(*row))
    return list(fragments.values())


def split_rows(
    boxes: np.ndarray,
    horizontal: np.ndarray,
    cut_rows: np.ndarray,
    cut_positions: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut rectangle rows at positions on their cut axes, all rows at once.

    ``boxes`` is an int64 ``(n, 4)`` array of ``(xl, yl, xh, yh)`` rows and
    ``horizontal[i]`` row ``i``'s cut axis (True: cuts at x positions).
    ``cut_rows`` and ``cut_positions`` list the positions offered to each
    row, grouped by row in ascending order, strictly ascending within a
    row.  A row is cut at every offered position strictly inside its
    interval on the cut axis.

    Returns ``(pieces, piece_rows, slots)``: the pieces, row after row and
    along the axis within a row; the row each comes from; and its slot, the
    number of the row's offered positions at or below the piece's low end.
    The pieces of one feature's rows that share a slot form one fragment.
    """
    count = len(boxes)
    lo = np.where(horizontal, boxes[:, 0], boxes[:, 1])
    hi = np.where(horizontal, boxes[:, 2], boxes[:, 3])
    inside = (lo[cut_rows] < cut_positions) & (cut_positions < hi[cut_rows])
    below = np.bincount(cut_rows[cut_positions <= lo[cut_rows]], minlength=count)
    cuts = np.bincount(cut_rows[inside], minlength=count)
    piece_rows = np.repeat(np.arange(count), cuts + 1)
    rank = np.arange(len(piece_rows)) - np.repeat(np.cumsum(cuts + 1) - cuts - 1, cuts + 1)
    first = rank == 0
    last = rank == cuts[piece_rows]
    inner = cut_positions[inside]
    low = np.empty(len(piece_rows), dtype=np.int64)
    high = np.empty(len(piece_rows), dtype=np.int64)
    low[first], low[~first] = lo, inner
    high[last], high[~last] = hi, inner
    pieces = boxes[piece_rows]
    across = horizontal[piece_rows]
    pieces[across, 0], pieces[across, 2] = low[across], high[across]
    pieces[~across, 1], pieces[~across, 3] = low[~across], high[~across]
    return pieces, piece_rows, below[piece_rows] + rank
