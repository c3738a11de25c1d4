"""Property-based tests: the bulk construction against a brute-force oracle.

The oracle builds the decomposition graph the slow, obvious way: every
shape pair and every fragment pair is measured with
:func:`~repro.geometry.distance.rects_squared_distance`, and stitch
candidates and fragments come from :func:`_reference_stitch_candidates`
and :func:`_reference_split_feature`, copies of the per-feature projection
and slicing routines that :func:`~repro.graph.stitch.stitch_positions` and
:func:`~repro.graph.stitch.split_at` replaced.  Layouts are random
rectangles and L-shapes (negative coordinates included) under random
construction options.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.distance import close_rect_pairs, rects_squared_distance
from repro.geometry.layout import Layout
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect, rect_array
from repro.graph.construction import ConstructionOptions, build_decomposition_graph
from repro.graph.stitch import StitchCandidate, find_stitch_candidates, split_feature

coordinates = st.integers(min_value=-1500, max_value=1500)
lengths = st.integers(min_value=1, max_value=600)
widths = st.integers(min_value=1, max_value=60)


# ----------------------------------------------------------------- oracle
def _reference_stitch_candidates(
    feature_rects: Sequence[Rect],
    neighbour_rects: Sequence[Sequence[Rect]],
    min_fragment_length: int,
    projection_margin: int,
    max_candidates: int,
) -> List[StitchCandidate]:
    """The per-feature stitch routine, merge-then-scan, kept as the oracle."""
    bbox = feature_rects[0]
    for rect in feature_rects[1:]:
        bbox = bbox.union_bbox(rect)
    horizontal = bbox.width >= bbox.height
    lo, hi = (bbox.xl, bbox.xh) if horizontal else (bbox.yl, bbox.yh)
    if hi - lo < 2 * min_fragment_length:
        return []
    projections = sorted(
        ((r.xl, r.xh) if horizontal else (r.yl, r.yh))
        for rects in neighbour_rects
        for r in rects
    )
    covered: List[Tuple[int, int]] = []
    for p_lo, p_hi in projections:
        p_lo, p_hi = p_lo - projection_margin, p_hi + projection_margin
        if covered and p_lo <= covered[-1][1]:
            covered[-1] = (covered[-1][0], max(covered[-1][1], p_hi))
        else:
            covered.append((p_lo, p_hi))
    gaps: List[Tuple[int, int]] = []
    cursor = lo
    for c_lo, c_hi in covered:
        if c_lo > cursor:
            gaps.append((cursor, min(c_lo, hi)))
        cursor = max(cursor, c_hi)
        if cursor >= hi:
            break
    if cursor < hi:
        gaps.append((cursor, hi))
    candidates = []
    for g_lo, g_hi in gaps:
        g_lo = max(g_lo, lo + min_fragment_length)
        g_hi = min(g_hi, hi - min_fragment_length)
        if g_hi > g_lo:
            candidates.append((g_hi - g_lo, (g_lo + g_hi) // 2))
    candidates.sort(key=lambda item: (-item[0], item[1]))
    chosen = sorted(position for _, position in candidates[:max_candidates])
    return [StitchCandidate(position, horizontal) for position in chosen]


def _reference_split_feature(
    feature_rects: Sequence[Rect], candidates: Sequence[StitchCandidate]
) -> List[List[Rect]]:
    """The slice-then-bucket feature split, kept as the oracle."""
    if not candidates:
        return [list(feature_rects)]
    horizontal = candidates[0].horizontal
    positions = sorted(c.position for c in candidates)
    fragments: List[List[Rect]] = [[] for _ in range(len(positions) + 1)]
    boundaries = [float("-inf")] + [float(p) for p in positions] + [float("inf")]
    for rect in feature_rects:
        pieces = [rect]
        for position in positions:
            sliced = []
            for piece in pieces:
                lo, hi = (piece.xl, piece.xh) if horizontal else (piece.yl, piece.yh)
                if lo < position < hi:
                    if horizontal:
                        sliced.extend(piece.split_vertical(position))
                    else:
                        sliced.extend(piece.split_horizontal(position))
                else:
                    sliced.append(piece)
            pieces = sliced
        for piece in pieces:
            lo, hi = (piece.xl, piece.xh) if horizontal else (piece.yl, piece.yh)
            mid = (lo + hi) / 2.0
            for index in range(len(fragments)):
                if boundaries[index] <= mid < boundaries[index + 1]:
                    fragments[index].append(piece)
                    break
    return [fragment for fragment in fragments if fragment]


def _oracle(layout: Layout, options: ConstructionOptions):
    """(vertex data, conflict, stitch, friend edges, fragments, shape_vertices)."""
    shapes = layout.shapes_on_layer("metal1")
    rects = {s.shape_id: s.rects() for s in shapes}
    min_s = options.min_coloring_distance
    friend_hi = min_s + options.half_pitch
    vertices, fragments, shape_vertices, stitch = [], {}, {}, []
    shape_of = {}
    for shape in shapes:
        sid = shape.shape_id
        neighbours = [
            rects[other.shape_id]
            for other in shapes
            if other.shape_id != sid
            and rects_squared_distance(rects[sid], rects[other.shape_id]) < min_s**2
        ]
        pieces = [rects[sid]]
        if options.enable_stitches and neighbours:
            candidates = _reference_stitch_candidates(
                rects[sid],
                neighbours,
                options.min_fragment_length,
                options.stitch_projection_margin,
                options.max_stitches_per_feature,
            )
            pieces = _reference_split_feature(rects[sid], candidates)
        ids = list(range(len(vertices), len(vertices) + len(pieces)))
        for index, (vertex, piece) in enumerate(zip(ids, pieces)):
            vertices.append((vertex, sid, index, 1))
            fragments[vertex] = [(r.xl, r.yl, r.xh, r.yh) for r in piece]
            shape_of[vertex] = sid
        shape_vertices[sid] = ids
        stitch.extend(zip(ids, ids[1:]))
    conflict, friend = [], []
    pieces_of = {v: [Rect(*box) for box in boxes] for v, boxes in fragments.items()}
    for u in pieces_of:
        for v in pieces_of:
            if u < v and shape_of[u] != shape_of[v]:
                d2 = rects_squared_distance(pieces_of[u], pieces_of[v])
                if d2 < min_s**2:
                    conflict.append((u, v))
                elif options.enable_color_friendly and d2 < friend_hi**2:
                    friend.append((u, v))
    return vertices, conflict, stitch, friend, fragments, shape_vertices


def _observed(layout: Layout, options: ConstructionOptions):
    result = build_decomposition_graph(layout, options=options)
    graph = result.graph
    vertices = [
        (v, graph.vertex_data(v).shape_id, graph.vertex_data(v).fragment,
         graph.vertex_data(v).weight)
        for v in graph.vertices()
    ]
    fragments = {
        v: [(r.xl, r.yl, r.xh, r.yh) for r in rects]
        for v, rects in result.fragments.items()
    }
    return (
        vertices,
        graph.conflict_edges(),
        graph.stitch_edges(),
        graph.friend_edges(),
        fragments,
        result.shape_vertices,
    )


# ------------------------------------------------------------- strategies
@st.composite
def rectilinear_layouts(draw):
    """Wires of both orientations plus L-shapes, crowded into one window."""
    layout = Layout()
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        x, y = draw(coordinates), draw(coordinates)
        length, width = draw(lengths), draw(widths)
        kind = draw(st.sampled_from(["horizontal", "vertical", "L"]))
        if kind == "horizontal":
            layout.add_rect(Rect(x, y, x + length, y + width))
        elif kind == "vertical":
            layout.add_rect(Rect(x, y, x + width, y + length))
        else:  # both arms reach past the corner square
            length += width
            arm = draw(lengths)
            layout.add_polygon(
                Polygon.from_points(
                    [
                        (x, y),
                        (x + length, y),
                        (x + length, y + width),
                        (x + width, y + width),
                        (x + width, y + arm + width),
                        (x, y + arm + width),
                    ]
                )
            )
    return layout


construction_options = st.builds(
    ConstructionOptions,
    min_coloring_distance=st.integers(min_value=1, max_value=160),
    half_pitch=st.integers(min_value=0, max_value=60),
    enable_stitches=st.booleans(),
    min_fragment_length=st.integers(min_value=1, max_value=120),
    max_stitches_per_feature=st.integers(min_value=0, max_value=4),
    stitch_projection_margin=st.integers(min_value=0, max_value=40),
    enable_color_friendly=st.booleans(),
)


@st.composite
def boxes(draw, max_size=40):
    rows = draw(
        st.lists(
            st.tuples(coordinates, coordinates, lengths, widths, st.booleans()),
            min_size=0,
            max_size=max_size,
        )
    )
    return [
        Rect(x, y, x + (w if vertical else length), y + (length if vertical else w))
        for x, y, length, w, vertical in rows
    ]


# ------------------------------------------------------------------ tests
class TestConstructionOracle:
    @settings(max_examples=120, deadline=None)
    @given(rectilinear_layouts(), construction_options)
    def test_bulk_construction_matches_brute_force(self, layout, options):
        assert _observed(layout, options) == _oracle(layout, options)


class TestStitchOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        boxes(max_size=3).filter(bool),
        st.lists(boxes(max_size=4), max_size=5),
        st.integers(min_value=1, max_value=120),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=4),
    )
    def test_one_feature_matches_the_reference(
        self, feature, neighbours, min_length, margin, max_candidates
    ):
        assert find_stitch_candidates(
            feature, neighbours, min_length, margin, max_candidates
        ) == _reference_stitch_candidates(
            feature, neighbours, min_length, margin, max_candidates
        )


class TestSplitOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        rectilinear_layouts(),
        st.lists(st.integers(min_value=-1600, max_value=2400), max_size=4),
        st.booleans(),
    )
    def test_split_matches_the_reference(self, layout, positions, horizontal):
        candidates = [StitchCandidate(p, horizontal) for p in positions]
        for shape in layout:
            assert split_feature(shape.rects(), candidates) == _reference_split_feature(
                shape.rects(), candidates
            )


class TestCloseRectPairsOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        boxes(),
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=6),
        st.data(),
    )
    def test_matches_all_pairs(self, rects, radius, owner_count, data):
        owners = [data.draw(st.integers(0, owner_count - 1)) for _ in rects]
        group_of = [data.draw(st.integers(0, owner_count)) for _ in range(owner_count)]
        groups = [group_of[owner] for owner in owners]
        expected = {}
        for i, a in enumerate(rects):
            for j, b in enumerate(rects):
                if owners[i] < owners[j] and groups[i] != groups[j]:
                    d2 = a.squared_distance(b)
                    pair = (owners[i], owners[j])
                    if d2 < radius**2 and d2 < expected.get(pair, d2 + 1):
                        expected[pair] = d2
        low, high, d2 = close_rect_pairs(
            rect_array(rects),
            np.array(owners, dtype=np.int64),
            radius,
            np.array(groups, dtype=np.int64),
        )
        found = list(zip(low.tolist(), high.tolist(), d2.tolist()))
        assert found == sorted((a, b, d) for (a, b), d in expected.items())
