"""Unit tests for solution evaluation."""

import pytest

from repro.core.evaluation import (
    CostBreakdown,
    DecompositionSolution,
    check_complete,
    count_conflicts,
    count_stitches,
    evaluate,
)
from repro.errors import DecompositionError
from repro.graph.decomposition_graph import DecompositionGraph


@pytest.fixture
def small_graph():
    return DecompositionGraph.from_edges(
        conflict_edges=[(0, 1), (1, 2)], stitch_edges=[(2, 3)]
    )


class TestCounting:
    def test_no_violations(self, small_graph):
        coloring = {0: 0, 1: 1, 2: 0, 3: 0}
        assert count_conflicts(small_graph, coloring) == 0
        assert count_stitches(small_graph, coloring) == 0

    def test_conflict_counted(self, small_graph):
        coloring = {0: 1, 1: 1, 2: 0, 3: 0}
        assert count_conflicts(small_graph, coloring) == 1

    def test_stitch_counted(self, small_graph):
        coloring = {0: 0, 1: 1, 2: 0, 3: 2}
        assert count_stitches(small_graph, coloring) == 1

    def test_evaluate_breakdown(self, small_graph):
        coloring = {0: 1, 1: 1, 2: 1, 3: 2}
        breakdown = evaluate(small_graph, coloring, alpha=0.1)
        assert breakdown.conflicts == 2
        assert breakdown.stitches == 1
        assert breakdown.cost == pytest.approx(2.1)


class TestCostBreakdownOrdering:
    def test_conflicts_dominate(self):
        better = CostBreakdown(conflicts=1, stitches=100, alpha=0.1)
        worse = CostBreakdown(conflicts=2, stitches=0, alpha=0.1)
        assert better.better_than(worse)
        assert not worse.better_than(better)

    def test_stitches_break_ties(self):
        a = CostBreakdown(conflicts=1, stitches=3, alpha=0.1)
        b = CostBreakdown(conflicts=1, stitches=5, alpha=0.1)
        assert a.better_than(b)


class TestCheckComplete:
    def test_complete_passes(self, small_graph):
        check_complete(small_graph, {0: 0, 1: 1, 2: 2, 3: 3}, 4)

    def test_missing_vertex_raises(self, small_graph):
        with pytest.raises(DecompositionError):
            check_complete(small_graph, {0: 0, 1: 1}, 4)

    def test_out_of_range_color_raises(self, small_graph):
        with pytest.raises(DecompositionError):
            check_complete(small_graph, {0: 0, 1: 1, 2: 2, 3: 4}, 4)


class TestDecompositionSolution:
    def _solution(self, graph):
        coloring = {0: 0, 1: 1, 2: 2, 3: 2}
        return DecompositionSolution(
            coloring=coloring,
            num_colors=4,
            conflicts=count_conflicts(graph, coloring),
            stitches=count_stitches(graph, coloring),
            algorithm="test",
            graph=graph,
        )

    def test_masks_grouping(self, small_graph):
        solution = self._solution(small_graph)
        masks = solution.masks()
        assert masks[0] == [0]
        assert masks[2] == [2, 3]
        assert masks[3] == []

    def test_mask_of_unknown_vertex_raises(self, small_graph):
        solution = self._solution(small_graph)
        with pytest.raises(DecompositionError):
            solution.mask_of(99)

    def test_cost_and_summary(self, small_graph):
        solution = self._solution(small_graph)
        assert solution.cost == pytest.approx(solution.conflicts + 0.1 * solution.stitches)
        text = solution.summary()
        assert "conflicts=" in text and "test" in text
