"""The metrics text parser behind the lint check and the benchmark scraper."""

from __future__ import annotations

import math

import pytest

from repro.obs.hist import Histogram
from repro.service.metrics import (
    counter_family,
    gauge_family,
    histogram_family,
    lint_metrics_text,
    parse_metrics_text,
    process_telemetry_families,
    render_metrics,
)

pytestmark = pytest.mark.obs


def _render_sample_payload():
    hist = Histogram(buckets=(0.01, 0.1, 1.0))
    for value in (0.005, 0.05, 0.5, 5.0):
        hist.observe(value)
    return render_metrics(
        [
            counter_family(
                "repro_requests_total",
                "Requests by result.",
                [({"result": "served"}, 41), ({"result": "failed"}, 1)],
            ),
            gauge_family("repro_queue_depth", "Queued jobs.", [({}, 3)]),
            histogram_family(
                "repro_stage_duration_seconds",
                "Per-stage latency.",
                [({"stage": "solve"}, hist.snapshot())],
            ),
        ]
    )


class TestParse:
    def test_families_and_types_round_trip(self):
        parsed = parse_metrics_text(_render_sample_payload())
        assert parsed.problems == []
        assert parsed.families["repro_requests_total"].type == "counter"
        assert parsed.families["repro_queue_depth"].type == "gauge"
        assert parsed.families["repro_stage_duration_seconds"].type == "histogram"

    def test_value_requires_exact_label_set(self):
        parsed = parse_metrics_text(_render_sample_payload())
        assert parsed.value("repro_requests_total", {"result": "served"}) == 41
        assert parsed.value("repro_requests_total", {"result": "failed"}) == 1
        assert parsed.value("repro_requests_total") is None  # no unlabelled sample
        assert parsed.value("repro_queue_depth") == 3

    def test_escaped_label_values_decode(self):
        text = (
            "# HELP g x\n# TYPE g gauge\n"
            'g{path="C:\\\\tmp",note="say \\"hi\\"\\nbye"} 1\n'
        )
        parsed = parse_metrics_text(text)
        assert parsed.problems == []
        (sample,) = parsed.families["g"].samples
        assert sample.labels == {"path": "C:\\tmp", "note": 'say "hi"\nbye'}

    def test_special_values_parse(self):
        text = (
            "# HELP g x\n# TYPE g gauge\n"
            'g{kind="nan"} NaN\ng{kind="inf"} +Inf\ng{kind="neg"} -Inf\n'
        )
        parsed = parse_metrics_text(text)
        assert parsed.problems == []
        assert math.isnan(parsed.value("g", {"kind": "nan"}))
        assert parsed.value("g", {"kind": "inf"}) == math.inf

    def test_non_numeric_le_is_a_problem_not_a_crash(self):
        text = (
            "# HELP h x\n# TYPE h histogram\n"
            'h_bucket{le="abc"} 1\nh_bucket{le="+Inf"} 1\nh_sum 0.5\nh_count 1\n'
        )
        parsed = parse_metrics_text(text)
        assert parsed.problems == ["line 3: non-numeric le 'abc'"]
        buckets = [s.labels for s in parsed.families["h"].samples if s.name == "h_bucket"]
        assert buckets == [{"le": "+Inf"}]

    def test_histogram_lines_read_back_by_value(self):
        """A scraper takes a stage's mean from ``_sum``/``_count`` and its
        buckets from the cumulative ``_bucket`` lines."""
        parsed = parse_metrics_text(_render_sample_payload())
        solve = {"stage": "solve"}
        assert parsed.value("repro_stage_duration_seconds_count", solve) == 4
        assert parsed.value(
            "repro_stage_duration_seconds_sum", solve
        ) == pytest.approx(5.555)
        assert parsed.value(
            "repro_stage_duration_seconds_bucket", {**solve, "le": "0.1"}
        ) == 2
        assert parsed.value(
            "repro_stage_duration_seconds_bucket", {**solve, "le": "+Inf"}
        ) == 4

    def test_timestamp_after_the_value_is_ignored(self):
        text = "# HELP g x\n# TYPE g gauge\ng 7 1700000000000\n"
        parsed = parse_metrics_text(text)
        assert parsed.problems == []
        assert parsed.value("g") == 7

    def test_problems_match_lint(self):
        bad = 'orphan 1\n# TYPE h counter\nh 1\n'
        assert parse_metrics_text(bad).problems == lint_metrics_text(bad)
        assert lint_metrics_text(bad) != []

    def test_real_expositions_parse_clean(self):
        """The process self-telemetry every /metrics now carries parses
        without problems and exposes the uptime gauge."""
        text = render_metrics(process_telemetry_families())
        parsed = parse_metrics_text(text)
        assert parsed.problems == []
        uptime = parsed.value("repro_process_uptime_seconds")
        assert uptime is not None and uptime >= 0


_GAUGE = "# HELP g x\n# TYPE g gauge\n"
_HISTOGRAM = "# HELP h x\n# TYPE h histogram\n"


class TestProblems:
    """Every violation the parser knows, one exposition each: the problems
    it reports and the samples it keeps.  An unreadable sample line is
    reported once and skipped; a histogram series that breaks an
    invariant keeps its samples."""

    @pytest.mark.parametrize(
        "text, problems, samples",
        [
            (
                "# HELP g\n# TYPE g gauge\ng 1\n",
                ["line 1: HELP without text", "line 2: TYPE g without preceding HELP"],
                [("g", {}, 1)],
            ),
            (
                "# HELP g x\n# TYPE g widget\ng 1\n",
                [
                    "line 2: bad TYPE line '# TYPE g widget'",
                    "line 3: sample g without TYPE declaration",
                ],
                [],
            ),
            (
                "# HELP g x\n# TYPE g\ng 1\n",
                [
                    "line 2: bad TYPE line '# TYPE g'",
                    "line 3: sample g without TYPE declaration",
                ],
                [],
            ),
            (
                _GAUGE + "# TYPE g gauge\ng 1\n",
                ["line 3: duplicate TYPE for g"],
                [("g", {}, 1)],
            ),
            (_GAUGE + 'g{a="1" 1\n', ["line 3: unbalanced braces"], []),
            (_GAUGE + "g{a=1} 1\n", ["line 3: malformed label pair"], []),
            (_GAUGE + "g{a=} 1\n", ["line 3: malformed label pair"], []),
            (_GAUGE + 'g{a="1} 1\n', ["line 3: unterminated label value"], []),
            (_GAUGE + 'g{a="\\t"} 1\n', ["line 3: unterminated label value"], []),
            (_GAUGE + "g one\n", ["line 3: unparseable value 'one'"], []),
            (_GAUGE + "g\n", ["line 3: unparseable value ''"], []),
            (
                _HISTOGRAM
                + 'h_bucket{x="1"} 1\nh_bucket{le="+Inf"} 1\nh_sum 1\nh_count 1\n',
                ["line 3: histogram bucket without le label"],
                [("h_bucket", {"le": "+Inf"}, 1), ("h_sum", {}, 1), ("h_count", {}, 1)],
            ),
            (
                _HISTOGRAM + 'h_bucket{le="+Inf"} 3\nh_sum 1\nh_count 4\n',
                ["h{}: +Inf bucket != _count"],
                [("h_bucket", {"le": "+Inf"}, 3), ("h_sum", {}, 1), ("h_count", {}, 4)],
            ),
        ],
        ids=[
            "help-without-text",
            "unknown-type",
            "type-without-kind",
            "duplicate-type",
            "unbalanced-braces",
            "unquoted-label-value",
            "empty-label-value",
            "unterminated-label-value",
            "unknown-escape",
            "non-numeric-value",
            "missing-value",
            "bucket-without-le",
            "inf-bucket-not-count",
        ],
    )
    def test_each_violation(self, text, problems, samples):
        parsed = parse_metrics_text(text)
        assert parsed.problems == problems
        kept = [
            (sample.name, sample.labels, sample.value)
            for family in parsed.families.values()
            for sample in family.samples
        ]
        assert kept == samples

    def test_lines_after_a_skipped_sample_still_parse(self):
        parsed = parse_metrics_text(_GAUGE + 'g{a=1} 1\ng{a="2"} 2\n')
        assert parsed.problems == ["line 3: malformed label pair"]
        assert parsed.value("g") is None
        assert parsed.value("g", {"a": "2"}) == 2
