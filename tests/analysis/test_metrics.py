"""Unit tests for the post-decomposition analysis metrics."""

import pytest

from repro.analysis.metrics import (
    conflict_report,
    graph_statistics,
    mask_balance,
    summary_text,
)
from repro.bench.cells import four_clique_contact_cell
from repro.bench.synthetic import dense_contact_array
from repro.core.decomposer import Decomposer
from repro.core.options import DecomposerOptions
from repro.graph.decomposition_graph import DecompositionGraph


@pytest.fixture(scope="module")
def clean_result():
    """A conflict-free quadruple-patterning decomposition of the Fig. 1 cell."""
    options = DecomposerOptions.for_quadruple_patterning("backtrack")
    return Decomposer(options).decompose(four_clique_contact_cell(), layer="contact")


@pytest.fixture(scope="module")
def conflicted_result():
    """A triple-patterning decomposition that necessarily keeps conflicts."""
    options = DecomposerOptions.for_k_patterning(3, "backtrack")
    options.construction.min_coloring_distance = 80
    return Decomposer(options).decompose(dense_contact_array(3, 4), layer="metal1")


class TestMaskBalance:
    def test_fragment_counts_sum_to_vertices(self, clean_result):
        balance = mask_balance(clean_result)
        assert sum(balance.fragment_counts.values()) == len(
            clean_result.solution.coloring
        )

    def test_density_ratio_sums_to_one(self, clean_result):
        balance = mask_balance(clean_result)
        assert sum(balance.density_ratio.values()) == pytest.approx(1.0)

    def test_perfectly_balanced_four_clique(self, clean_result):
        """Four identical contacts on four masks: balance score 1.0."""
        balance = mask_balance(clean_result)
        assert balance.balance_score == pytest.approx(1.0)

    def test_score_between_zero_and_one(self, conflicted_result):
        balance = mask_balance(conflicted_result)
        assert 0.0 <= balance.balance_score <= 1.0


class TestConflictReport:
    def test_clean_solution_has_no_reports(self, clean_result):
        assert conflict_report(clean_result) == []

    def test_report_count_matches_solution(self, conflicted_result):
        reports = conflict_report(conflicted_result)
        assert len(reports) == conflicted_result.solution.conflicts

    def test_report_fields(self, conflicted_result):
        reports = conflict_report(conflicted_result)
        for report in reports:
            assert 0 <= report.mask < 3
            assert report.spacing < 80
            assert report.location.area > 0


class TestGraphStatistics:
    def test_counts(self, clean_result):
        stats = graph_statistics(clean_result.construction.graph, 4)
        assert stats.vertices == 4
        assert stats.conflict_edges == 6
        assert stats.max_conflict_degree == 3
        assert stats.component_count == 1
        assert stats.largest_component == 4
        # every vertex has conflict degree 3 < 4, so the kernel is empty
        assert stats.kernel_vertices == 0

    def test_empty_graph(self):
        stats = graph_statistics(DecompositionGraph(), 4)
        assert stats.vertices == 0
        assert stats.component_count == 0
        assert stats.average_conflict_degree == 0.0


class TestSummaryText:
    def test_clean_summary(self, clean_result):
        text = summary_text(clean_result)
        assert "mask balance score" in text
        assert "hotspots" not in text

    def test_conflicted_summary_lists_hotspots(self, conflicted_result):
        text = summary_text(conflicted_result)
        assert "hotspots" in text
        assert "mask" in text

    def test_summary_builds_no_graph(self, monkeypatch):
        """The report reads the layout's flat form: no ``from_parts`` call."""
        options = DecomposerOptions.for_k_patterning(3, "backtrack")
        options.construction.min_coloring_distance = 80
        result = Decomposer(options).decompose(dense_contact_array(3, 4), layer="metal1")
        builds = []
        from_parts = DecompositionGraph.from_parts.__func__

        def counted(cls, *args, **kwargs):
            builds.append(cls)
            return from_parts(cls, *args, **kwargs)

        monkeypatch.setattr(DecompositionGraph, "from_parts", classmethod(counted))
        assert "hotspots" in summary_text(result)
        assert builds == []
        assert "_vertices" not in vars(result.construction.graph)
