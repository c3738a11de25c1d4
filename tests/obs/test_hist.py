"""Histogram primitives and Prometheus exposition formatting."""

from __future__ import annotations

import math
import threading

import pytest

from repro.obs.hist import (
    DEFAULT_BUCKETS,
    Histogram,
    HistogramVec,
    format_float,
)
from repro.service.metrics import (
    histogram_family,
    lint_metrics_text,
    render_metrics,
)

pytestmark = pytest.mark.obs


class TestFormatFloat:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.0, "0"),
            (3.0, "3"),
            (-2.0, "-2"),
            (0.5, "0.5"),
            (0.0005, "0.0005"),  # repr is 0.0005 already
            (1e-05, "0.00001"),  # repr would be 1e-05
            (2.5e-07, "0.00000025"),
            (math.inf, "+Inf"),
            (-math.inf, "-Inf"),
        ],
    )
    def test_canonical_rendering(self, value, expected):
        assert format_float(value) == expected

    def test_nan_spelling(self):
        assert format_float(math.nan) == "NaN"

    def test_expansion_is_lossless(self):
        """Scientific-notation expansion must round-trip exactly."""
        for value in (1e-5, 2.5e-7, 1.25e-4, 3e-10 * 1000):
            assert float(format_float(value)) == value

    def test_default_bucket_bounds_all_render_plainly(self):
        for bound in DEFAULT_BUCKETS:
            text = format_float(bound)
            assert "e" not in text and "E" not in text
            assert float(text) == bound


class TestHistogram:
    def test_observations_land_in_first_fitting_bucket(self):
        hist = Histogram(buckets=(0.01, 0.1, 1.0))
        hist.observe(0.005)   # <= 0.01
        hist.observe(0.05)    # <= 0.1
        hist.observe(0.5)     # <= 1.0
        hist.observe(5.0)     # overflows into +Inf only
        snap = hist.snapshot()
        assert snap.counts == (1, 1, 1)
        assert snap.total_count == 4
        assert snap.total_sum == pytest.approx(5.555)

    def test_cumulative_ends_with_inf_equal_to_count(self):
        hist = Histogram(buckets=(0.01, 0.1))
        for value in (0.001, 0.002, 0.05, 99.0):
            hist.observe(value)
        pairs = hist.snapshot().cumulative()
        assert pairs == [(0.01, 2), (0.1, 3), (math.inf, 4)]

    def test_boundary_value_is_inclusive(self):
        hist = Histogram(buckets=(0.01, 0.1))
        hist.observe(0.01)
        assert hist.snapshot().counts == (1, 0)

    def test_buckets_are_sorted_regardless_of_input_order(self):
        hist = Histogram(buckets=(1.0, 0.01, 0.1))
        assert hist.snapshot().buckets == (0.01, 0.1, 1.0)

    def test_unobserved_histogram_renders_zero_buckets_lint_clean(self):
        """A process that has timed nothing yet still exposes every bucket."""
        snap = Histogram(buckets=(0.1, 1.0)).snapshot()
        assert snap.cumulative() == [(0.1, 0), (1.0, 0), (math.inf, 0)]
        text = render_metrics(
            [histogram_family("repro_idle_seconds", "Nothing timed yet.", [({}, snap)])]
        )
        assert lint_metrics_text(text) == []
        assert 'repro_idle_seconds_bucket{le="+Inf"} 0' in text.splitlines()
        assert "repro_idle_seconds_count 0" in text.splitlines()

    def test_empty_bucket_list_rejected(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())


class TestHistogramVec:
    def test_children_isolated_and_sorted(self):
        vec = HistogramVec("stage", buckets=(0.1, 1.0))
        vec.observe("solve", 0.05)
        vec.observe("parse", 0.5)
        vec.observe("parse", 0.05)
        snapshot = vec.snapshot()
        assert [name for name, _ in snapshot] == ["parse", "solve"]
        parse, solve = snapshot[0][1], snapshot[1][1]
        assert parse.total_count == 2 and solve.total_count == 1

    def test_labels_is_idempotent(self):
        vec = HistogramVec("stage")
        assert vec.labels("x") is vec.labels("x")


class TestConcurrentObserve:
    def test_counter_monotonicity_under_concurrent_observe(self):
        """Snapshots taken while another thread observes must stay
        internally consistent (cumulative never decreases, +Inf == count)
        and monotone across snapshots — the invariant a scraper depends
        on while nodes keep serving traffic."""
        hist = Histogram(buckets=(0.01, 0.1, 1.0))
        stop = threading.Event()

        def hammer():
            value = 0.0001
            while not stop.is_set():
                hist.observe(value)
                value = (value * 1.7) % 2.0 + 0.0001

        thread = threading.Thread(target=hammer, daemon=True)
        thread.start()
        try:
            previous_total = 0
            for _ in range(200):
                snap = hist.snapshot()
                pairs = snap.cumulative()
                counts = [count for _, count in pairs]
                assert counts == sorted(counts)
                assert pairs[-1] == (math.inf, snap.total_count)
                assert snap.total_count >= previous_total
                previous_total = snap.total_count
                text = render_metrics(
                    [
                        histogram_family(
                            "repro_live_seconds",
                            "Live histogram under load.",
                            [({}, snap)],
                        )
                    ]
                )
                assert lint_metrics_text(text) == []
        finally:
            stop.set()
            thread.join(timeout=5)


class TestExposition:
    def _render(self):
        vec = HistogramVec("stage", buckets=(0.005, 0.05, 0.5))
        vec.observe("solve", 0.001)
        vec.observe("solve", 0.4)
        vec.observe("parse", 7.0)
        family = histogram_family(
            "repro_stage_duration_seconds",
            "Per-stage latency.",
            [({"stage": stage}, snap) for stage, snap in vec.snapshot()],
        )
        return render_metrics([family])

    def test_rendered_histogram_passes_lint(self):
        assert lint_metrics_text(self._render()) == []

    def test_bucket_lines_are_cumulative_with_inf(self):
        text = self._render()
        solve = [line for line in text.splitlines() if 'stage="solve"' in line]
        assert solve == [
            'repro_stage_duration_seconds_bucket{le="0.005",stage="solve"} 1',
            'repro_stage_duration_seconds_bucket{le="0.05",stage="solve"} 1',
            'repro_stage_duration_seconds_bucket{le="0.5",stage="solve"} 2',
            'repro_stage_duration_seconds_bucket{le="+Inf",stage="solve"} 2',
            'repro_stage_duration_seconds_sum{stage="solve"} 0.401',
            'repro_stage_duration_seconds_count{stage="solve"} 2',
        ]

    def test_lint_catches_decreasing_buckets(self):
        text = (
            "# HELP h x\n# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\nh_bucket{le="1"} 3\nh_bucket{le="+Inf"} 3\n'
            "h_sum 1\nh_count 3\n"
        )
        assert any("decrease" in p for p in lint_metrics_text(text))

    def test_lint_catches_missing_inf_bucket(self):
        text = (
            "# HELP h x\n# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\nh_sum 1\nh_count 5\n'
        )
        assert any("+Inf" in p for p in lint_metrics_text(text))

    def test_lint_catches_undeclared_sample(self):
        assert any(
            "without TYPE" in p for p in lint_metrics_text("orphan_metric 1\n")
        )

    def test_lint_catches_type_without_help(self):
        text = "# TYPE h counter\nh 1\n"
        assert any("without preceding HELP" in p for p in lint_metrics_text(text))

    def test_lint_accepts_escaped_label_values(self):
        text = (
            "# HELP g x\n# TYPE g gauge\n"
            'g{path="C:\\\\tmp",note="say \\"hi\\"\\nbye"} 1\n'
        )
        assert lint_metrics_text(text) == []
