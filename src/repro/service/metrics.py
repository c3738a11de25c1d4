"""Prometheus text exposition of the serving counters and histograms.

``GET /metrics`` on the decomposition server and on the cluster coordinator
renders the same numbers ``GET /stats`` reports as JSON, in the Prometheus
text format (version 0.0.4) so a stock Prometheus/VictoriaMetrics scraper
can watch a farm without a custom exporter.  Counters and gauges come from
the stats snapshots; histogram families (``repro_stage_duration_seconds``
and friends) are fed live by :mod:`repro.obs` span instrumentation and
rendered with standard ``_bucket``/``_sum``/``_count`` semantics.

:func:`render_metrics` is the shared formatter; :func:`server_metrics_text`
maps a :meth:`DecompositionServer._stats` snapshot onto metric families (the
coordinator has its own mapping in :mod:`repro.cluster.coordinator`).
:func:`lint_metrics_text` is a minimal exposition-format parser used by the
test suite to keep every payload well-formed.
"""

from __future__ import annotations

import math
import os
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.hist import HistogramSnapshot, format_float

#: Content type of the text exposition format.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

# Process birth for repro_process_uptime_seconds.  This module is imported
# while the serving process boots, so import time is the start time for the
# purposes of a per-node uptime gauge.
_PROCESS_START = time.monotonic()

Number = Union[int, float]
#: One sample: (label dict, value).
Sample = Tuple[Mapping[str, str], Number]
#: One family: (name, type, help, samples).  For ``histogram`` families the
#: sample values are :class:`HistogramSnapshot` objects instead of numbers.
MetricFamily = Tuple[str, str, str, Sequence]


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: Number) -> str:
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return format_float(value)


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    rendered = ",".join(
        f'{key}="{_escape_label(str(val))}"' for key, val in sorted(labels.items())
    )
    return "{" + rendered + "}"


def render_metrics(families: Iterable[MetricFamily]) -> str:
    """Render metric families to the Prometheus text format."""
    lines: List[str] = []
    for name, mtype, help_text, samples in families:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {mtype}")
        if mtype == "histogram":
            for labels, snap in samples:
                base = dict(labels)
                for le, cumulative in snap.cumulative():
                    bucket_labels = dict(base)
                    bucket_labels["le"] = (
                        "+Inf" if math.isinf(le) else format_float(le)
                    )
                    lines.append(
                        f"{name}_bucket{_render_labels(bucket_labels)} {cumulative}"
                    )
                lines.append(
                    f"{name}_sum{_render_labels(base)} {format_float(snap.total_sum)}"
                )
                lines.append(f"{name}_count{_render_labels(base)} {snap.total_count}")
        else:
            for labels, value in samples:
                lines.append(f"{name}{_render_labels(labels)} {_format_value(value)}")
    return "\n".join(lines) + "\n"


def counter_family(
    name: str, help_text: str, samples: Sequence[Sample]
) -> MetricFamily:
    return (name, "counter", help_text, samples)


def gauge_family(name: str, help_text: str, samples: Sequence[Sample]) -> MetricFamily:
    return (name, "gauge", help_text, samples)


def histogram_family(
    name: str,
    help_text: str,
    samples: Sequence[Tuple[Mapping[str, str], HistogramSnapshot]],
) -> MetricFamily:
    return (name, "histogram", help_text, samples)


def build_info_family(role: str, solve_kernels: str) -> MetricFamily:
    """``repro_build_info``: constant-1 gauge whose labels identify the build.

    Carries the package version, every wire/cache schema version, and the
    solve-kernel backend that actually runs (``compiled`` or ``reference``,
    as the worker pool's startup probe found it; ``none`` on a process that
    solves nothing), so a fleet dashboard can spot a node without the
    compiled core or a build speaking another components frame.
    """
    import repro
    from repro.graph import FLAT_FRAME_VERSION
    from repro.runtime.hashing import _SCHEMA_VERSION as HASH_SCHEMA_VERSION
    from repro.runtime.sqlite_cache import SCHEMA_VERSION as CACHE_SCHEMA_VERSION
    from repro.runtime.wire_binary import FRAME_VERSION

    labels = {
        "version": repro.__version__,
        "role": role,
        "hash_schema": str(HASH_SCHEMA_VERSION),
        "cache_schema": str(CACHE_SCHEMA_VERSION),
        "components_frame": str(FRAME_VERSION),
        "flat_frame": str(FLAT_FRAME_VERSION),
        "solve_kernels": solve_kernels,
    }
    return gauge_family(
        "repro_build_info",
        "Build/version identity of this process (value is always 1).",
        [(labels, 1)],
    )


def process_rss_bytes() -> Optional[int]:
    """Resident set size from ``/proc/self/statm``; ``None`` off-Linux."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            fields = handle.read().split()
        pages = int(fields[1])
        page_size = os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError, AttributeError):
        return None
    return pages * page_size


def process_open_fds() -> Optional[int]:
    """Open file descriptors from ``/proc/self/fd``; ``None`` off-Linux."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None


def process_telemetry_families() -> List[MetricFamily]:
    """Per-process self-telemetry gauges every ``/metrics`` exposes.

    A scraper reading every node gets an instant per-node fleet view: a
    node with runaway RSS or a descriptor leak stands out without shell
    access to the box.  The procfs-backed gauges are simply omitted on
    platforms without ``/proc`` rather than reporting garbage.
    """
    families = [
        gauge_family(
            "repro_process_uptime_seconds",
            "Seconds since this serving process imported the metrics layer.",
            [({}, time.monotonic() - _PROCESS_START)],
        )
    ]
    rss = process_rss_bytes()
    if rss is not None:
        families.append(
            gauge_family(
                "repro_process_rss_bytes",
                "Resident set size of this process (from /proc/self/statm).",
                [({}, rss)],
            )
        )
    fds = process_open_fds()
    if fds is not None:
        families.append(
            gauge_family(
                "repro_process_open_fds",
                "Open file descriptors of this process (from /proc/self/fd).",
                [({}, fds)],
            )
        )
    return families


def observability_families(obs) -> List[MetricFamily]:
    """Metric families fed by :mod:`repro.obs` instrumentation.

    Shared by the server's and the coordinator's ``/metrics``: the span
    stage histograms and, when the journal is enabled, journal telemetry.
    """
    families: List[MetricFamily] = process_telemetry_families()
    families.append(
        histogram_family(
            "repro_stage_duration_seconds",
            "Per-stage request latency (seconds), fed by trace spans.",
            [({"stage": stage}, snap) for stage, snap in obs.stages.snapshot()],
        )
    )
    if obs.journal is not None:
        journal_stats = obs.journal.stats()
        families.append(
            counter_family(
                "repro_journal_events_total",
                "Lifecycle events appended to the journal this process "
                "lifetime.",
                [({}, journal_stats["appended"])],
            )
        )
        families.append(
            counter_family(
                "repro_journal_recovered_bytes_total",
                "Torn-tail bytes truncated during journal open-time "
                "recovery.",
                [({}, journal_stats["recovered_bytes"])],
            )
        )
    return families


def server_metrics_text(
    stats: Dict, extra_families: Optional[Sequence[MetricFamily]] = None
) -> str:
    """Render a ``DecompositionServer._stats`` snapshot as Prometheus text."""
    server: Dict = stats.get("server", {})
    pool: Dict = stats.get("pool", {})
    cache: Dict = stats.get("cache", {})
    families: List[MetricFamily] = [
        counter_family(
            "repro_server_requests_total",
            "HTTP requests by terminal result.",
            [
                ({"result": result}, server.get(result, 0))
                for result in ("received", "served", "rejected", "failed", "timeouts", "invalid")
            ],
        ),
        counter_family(
            "repro_server_components_total",
            "Components solved via POST /components micro-batches.",
            [({}, server.get("components", 0))],
        ),
        counter_family(
            "repro_server_component_cache_hits_total",
            "Component requests answered from the component cache "
            "(cache-affinity hits when routed by a cluster coordinator).",
            [({}, server.get("component_cache_hits", 0))],
        ),
        counter_family(
            "repro_server_component_batches_total",
            "Component micro-batch requests served via POST /components.",
            [({}, server.get("component_batches", 0))],
        ),
        counter_family(
            "repro_server_batched_components_total",
            "Components received inside POST /components micro-batches "
            "(divide by repro_server_component_batches_total for the mean "
            "batch size).",
            [({}, server.get("batched_components", 0))],
        ),
        gauge_family(
            "repro_server_inflight_jobs",
            "Jobs admitted and not yet finished (queue depth).",
            [({}, server.get("inflight", 0))],
        ),
        gauge_family(
            "repro_server_queue_limit",
            "Admission-control bound on queued + in-flight jobs.",
            [({}, server.get("queue_limit", 0))],
        ),
        gauge_family(
            "repro_server_uptime_seconds",
            "Seconds since the server started.",
            [({}, server.get("uptime_seconds", 0.0))],
        ),
        counter_family(
            "repro_pool_jobs_total",
            "Worker-pool jobs by state.",
            [
                ({"state": state}, pool.get(state, 0))
                for state in ("submitted", "completed", "failed")
            ],
        ),
        gauge_family(
            "repro_pool_workers",
            "Size of the worker pool.",
            [({"mode": str(pool.get("mode", "unknown"))}, pool.get("workers", 0))],
        ),
        gauge_family(
            "repro_pool_queue_depth",
            "Jobs admitted but not yet dispatched to a worker.",
            [({}, pool.get("queue_depth", 0))],
        ),
        gauge_family(
            "repro_pool_active_jobs",
            "Jobs currently executing on a worker.",
            [({}, pool.get("active", 0))],
        ),
    ]
    if cache.get("backend") == "sqlite":
        families.append(
            counter_family(
                "repro_cache_operations_total",
                "Persistent component-cache operations (cumulative across restarts).",
                [
                    ({"operation": op}, cache.get(op, 0))
                    for op in ("hits", "misses", "stores", "evictions")
                ],
            )
        )
        families.append(
            gauge_family(
                "repro_cache_entries",
                "Components currently stored in the persistent cache.",
                [({}, cache.get("entries", 0))],
            )
        )
    if extra_families:
        families.extend(extra_families)
    return render_metrics(families)


class MetricSample:
    """One parsed sample line: full sample name, labels, numeric value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str], value: float) -> None:
        self.name = name
        self.labels = labels
        self.value = value

    def labels_key(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(sorted(self.labels.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricSample({self.name!r}, {self.labels!r}, {self.value!r})"


class ParsedFamily:
    """One parsed metric family: TYPE/HELP plus its sample lines.

    For histogram families ``samples`` holds the raw ``_bucket``/``_sum``/
    ``_count`` lines.
    """

    __slots__ = ("name", "type", "help", "samples")

    def __init__(self, name: str, mtype: str, help_text: str) -> None:
        self.name = name
        self.type = mtype
        self.help = help_text
        self.samples: List[MetricSample] = []


class ParsedMetrics:
    """Structured view of one text exposition payload.

    ``families`` preserves declaration order; ``problems`` accumulates every
    format violation found while parsing (the lint view); :meth:`value`
    reads one sample back.
    """

    def __init__(self) -> None:
        self.families: Dict[str, ParsedFamily] = {}
        self.problems: List[str] = []

    def value(
        self, sample_name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Optional[float]:
        """Value of one exact sample (full sample name + exact label set)."""
        want = tuple(sorted((labels or {}).items()))
        for family in self.families.values():
            for sample in family.samples:
                if sample.name == sample_name and sample.labels_key() == want:
                    return sample.value
        return None


def parse_metrics_text(text: str) -> ParsedMetrics:
    """Parse Prometheus text exposition into families, samples and problems.

    This is a real parser of the 0.0.4 text format as this codebase emits
    and scrapes it: HELP/TYPE tracking, label syntax with escape handling,
    value parsing (including ``+Inf``/``-Inf``/``NaN``), plus the histogram
    invariants a scraper relies on (cumulative ``le`` bucket monotonicity,
    final ``+Inf`` bucket equal to ``_count``).  Violations land in
    ``ParsedMetrics.problems`` — :func:`lint_metrics_text` is the thin
    wrapper that returns just those.  A sample line that cannot be read
    (labels, value, family or ``le``) is reported once and skipped; a
    histogram series that breaks an invariant keeps its samples.
    """
    parsed = ParsedMetrics()
    problems = parsed.problems
    declared: Dict[str, str] = {}
    helped: Dict[str, str] = {}
    histograms: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}
    hist_counts: Dict[str, Dict[str, float]] = {}

    def base_name(sample_name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            if sample_name.endswith(suffix):
                trimmed = sample_name[: -len(suffix)]
                if declared.get(trimmed) == "histogram":
                    return trimmed
        return sample_name

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not parts[3]:
                problems.append(f"line {lineno}: HELP without text")
            else:
                helped[parts[2]] = parts[3]
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or parts[3] not in ("counter", "gauge", "histogram", "summary", "untyped"):
                problems.append(f"line {lineno}: bad TYPE line {line!r}")
                continue
            name = parts[2]
            if name in declared:
                problems.append(f"line {lineno}: duplicate TYPE for {name}")
            if name not in helped:
                problems.append(f"line {lineno}: TYPE {name} without preceding HELP")
            declared[name] = parts[3]
            if name not in parsed.families:
                parsed.families[name] = ParsedFamily(
                    name, parts[3], helped.get(name, "")
                )
            continue
        if line.startswith("#"):
            continue
        # Sample line: name[{labels}] value
        brace = line.find("{")
        labels: Dict[str, str] = {}
        if brace >= 0:
            close = line.rfind("}")
            if close < brace:
                problems.append(f"line {lineno}: unbalanced braces")
                continue
            name = line[:brace]
            label_blob = line[brace + 1 : close]
            rest = line[close + 1 :].strip()
            bad_labels = False
            i = 0
            while i < len(label_blob):
                eq = label_blob.find("=", i)
                if eq < 0 or eq + 1 >= len(label_blob) or label_blob[eq + 1] != '"':
                    problems.append(f"line {lineno}: malformed label pair")
                    bad_labels = True
                    break
                key = label_blob[i:eq].strip().lstrip(",").strip()
                j = eq + 2
                value_chars: List[str] = []
                ok = False
                while j < len(label_blob):
                    ch = label_blob[j]
                    if ch == "\\":
                        if j + 1 >= len(label_blob) or label_blob[j + 1] not in ('"', "\\", "n"):
                            break
                        value_chars.append(
                            {"n": "\n", '"': '"', "\\": "\\"}[label_blob[j + 1]]
                        )
                        j += 2
                        continue
                    if ch == '"':
                        ok = True
                        j += 1
                        break
                    if ch == "\n":
                        break
                    value_chars.append(ch)
                    j += 1
                if not ok:
                    problems.append(f"line {lineno}: unterminated label value")
                    bad_labels = True
                    break
                labels[key] = "".join(value_chars)
                i = j
                if i < len(label_blob) and label_blob[i] == ",":
                    i += 1
            if bad_labels:
                continue
        else:
            name, _, rest = line.partition(" ")
            rest = rest.strip()
        value_text = rest.split(" ", 1)[0] if rest else ""
        try:
            if value_text in ("+Inf", "-Inf"):
                value = math.inf if value_text == "+Inf" else -math.inf
            elif value_text == "NaN":
                value = math.nan
            else:
                value = float(value_text)
        except ValueError:
            problems.append(f"line {lineno}: unparseable value {value_text!r}")
            continue
        family = base_name(name)
        if family not in declared:
            problems.append(f"line {lineno}: sample {name} without TYPE declaration")
            continue
        le: Optional[float] = None
        if declared[family] == "histogram" and name.endswith("_bucket"):
            le_text = labels.get("le")
            if le_text is None:
                problems.append(f"line {lineno}: histogram bucket without le label")
                continue
            try:
                le = math.inf if le_text == "+Inf" else float(le_text)
            except ValueError:
                problems.append(f"line {lineno}: non-numeric le {le_text!r}")
                continue
        parsed.families[family].samples.append(MetricSample(name, labels, value))
        if le is not None:
            series = ",".join(
                f"{k}={v}" for k, v in sorted(labels.items()) if k != "le"
            )
            histograms.setdefault(family, {}).setdefault(series, []).append((le, value))
        if declared[family] == "histogram" and name.endswith("_count"):
            series = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            hist_counts.setdefault(family, {})[series] = value

    for family, series_map in histograms.items():
        for series, buckets in series_map.items():
            ordered = sorted(buckets, key=lambda pair: pair[0])
            last = -math.inf
            for le, cumulative in ordered:
                if cumulative < last:
                    problems.append(
                        f"{family}{{{series}}}: bucket counts decrease at le={le}"
                    )
                last = cumulative
            if not ordered or not math.isinf(ordered[-1][0]):
                problems.append(f"{family}{{{series}}}: missing +Inf bucket")
            else:
                count = hist_counts.get(family, {}).get(series)
                if count is not None and count != ordered[-1][1]:
                    problems.append(
                        f"{family}{{{series}}}: +Inf bucket != _count"
                    )
    return parsed


def lint_metrics_text(text: str) -> List[str]:
    """Parse text exposition and return just the format problems.

    Thin wrapper over :func:`parse_metrics_text`, kept as the test-suite
    entry point: an empty list means the payload is lint-clean.
    """
    return parse_metrics_text(text).problems
