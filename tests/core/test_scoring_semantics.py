"""The flat-form scoring against the object-graph formulas it replaced.

``count_conflicts``, ``count_stitches`` and ``check_complete`` read the
graph's flat form, so scoring a view never builds its object graph.  The
formulas they replaced are kept below, verbatim, run on the built graph.
Both must agree on every coloring a caller can pass: complete ones, partial
ones (a missing endpoint counts for nothing), ones with keys that are not
vertices, and ones with colors outside ``0 .. K-1`` (``check_complete``
raising the same text).
"""

from __future__ import annotations

from typing import Dict, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluation import check_complete, count_conflicts, count_stitches, evaluate
from repro.errors import DecompositionError
from repro.graph.decomposition_graph import DecompositionGraph
from repro.graph.flat import flatten_graph

NUM_COLORS = 4


# ------------------------------------------- the formulas, as they stood
def legacy_check_complete(graph, coloring: Dict[int, int], num_colors: int) -> None:
    missing = [v for v in graph.vertices() if v not in coloring]
    if missing:
        raise DecompositionError(
            f"coloring misses {len(missing)} vertices (first: {missing[:5]})"
        )
    bad = {v: c for v, c in coloring.items() if not 0 <= c < num_colors}
    if bad:
        raise DecompositionError(
            f"coloring uses out-of-range colors for {len(bad)} vertices"
        )


def legacy_count_conflicts(graph, coloring: Dict[int, int]) -> int:
    return sum(
        1
        for (u, v) in graph.conflict_edges()
        if coloring.get(u) is not None and coloring.get(u) == coloring.get(v)
    )


def legacy_count_stitches(graph, coloring: Dict[int, int]) -> int:
    count = 0
    for (u, v) in graph.stitch_edges():
        cu, cv = coloring.get(u), coloring.get(v)
        if cu is not None and cv is not None and cu != cv:
            count += 1
    return count


def complete_error(check, graph, coloring) -> Optional[str]:
    try:
        check(graph, coloring, NUM_COLORS)
    except DecompositionError as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------- inputs
@st.composite
def scored(draw):
    """``(graph, coloring)``: a graph on spread-out ids and a coloring that
    may skip vertices, name non-vertices and use any small integer."""
    ids = sorted(draw(st.sets(st.integers(0, 500), min_size=0, max_size=14)))
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :]]
    edges = st.sets(st.sampled_from(pairs), max_size=20) if pairs else st.just(set())
    graph = DecompositionGraph.from_edges(
        sorted(draw(edges)), sorted(draw(edges)), vertices=ids
    )
    color = st.integers(min_value=-2, max_value=NUM_COLORS + 2)
    coloring = {v: draw(color) for v in ids if draw(st.booleans()) or draw(st.booleans())}
    for extra in draw(st.sets(st.integers(501, 520), max_size=3)):
        coloring[extra] = draw(color)
    return graph, coloring


@settings(max_examples=400, deadline=None)
@given(scored())
def test_flat_scoring_matches_the_object_graph_formulas(case):
    graph, coloring = case
    view = DecompositionGraph.from_flat(flatten_graph(graph))
    conflicts = legacy_count_conflicts(graph, coloring)
    stitches = legacy_count_stitches(graph, coloring)
    error = complete_error(legacy_check_complete, graph, coloring)
    for scored_graph in (view, graph):
        assert count_conflicts(scored_graph, coloring) == conflicts
        assert count_stitches(scored_graph, coloring) == stitches
        breakdown = evaluate(scored_graph, coloring)
        assert (breakdown.conflicts, breakdown.stitches) == (conflicts, stitches)
        assert complete_error(check_complete, scored_graph, coloring) == error
    assert "_vertices" not in vars(view)  # scoring a view built nothing


def test_the_corner_cases_are_drawn():
    graph = DecompositionGraph.from_edges([(1, 2), (2, 3), (3, 4)], [(4, 9), (1, 9)])
    cases = {
        "partial": {1: 0, 2: 0, 9: 1},
        "extra keys": {v: 0 for v in (1, 2, 3, 4, 9, 77)},
        "out of range": {1: -1, 2: -1, 3: 7, 4: 7, 9: 0, 50: 9},
    }
    for name, coloring in cases.items():
        view = DecompositionGraph.from_flat(flatten_graph(graph))
        assert count_conflicts(view, coloring) == legacy_count_conflicts(graph, coloring), name
        assert count_stitches(view, coloring) == legacy_count_stitches(graph, coloring), name
        assert complete_error(check_complete, view, coloring) == complete_error(
            legacy_check_complete, graph, coloring
        ), name
    assert complete_error(check_complete, graph, cases["out of range"]) == (
        "coloring uses out-of-range colors for 5 vertices"
    )
    assert count_conflicts(graph, cases["out of range"]) == 2
