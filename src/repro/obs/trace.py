"""Trace ids, per-request trace contexts, and the low-overhead Span.

A trace id is minted once at admission (server or coordinator) and
propagated everywhere the request travels: HTTP headers
(``X-Repro-Trace-Id``), binary ``/components`` frames and worker-pool
jobs all carry the same 16-hex string. The :class:`TraceContext` lives only on the process that minted
or received the id; remote hops ship the bare string.
"""

from __future__ import annotations

import os
import re
import time
from typing import Any, Dict, List, Optional

from repro.obs.hist import HistogramVec

_TRACE_ID_RE = re.compile(r"^[0-9a-fA-F-]{4,64}$")

# Lifecycle events that end a trace; nothing may be journaled after one.
TERMINAL_EVENTS = ("merged", "completed", "failed")


def new_trace_id() -> str:
    return os.urandom(8).hex()


def valid_trace_id(value: Any) -> bool:
    return isinstance(value, str) and bool(_TRACE_ID_RE.match(value))


class TraceContext:
    """Span collector for one request on one process.

    Span offsets are recorded relative to ``t0`` so an assembled trace
    can be read as a timeline. Thread-safe: node RPC spans land from
    fan-out executor threads.
    """

    __slots__ = ("trace_id", "t0", "_spans", "_lock", "_done", "_total", "_finished")

    def __init__(self, trace_id: str, t0: Optional[float] = None) -> None:
        import threading

        self.trace_id = trace_id
        self.t0 = time.perf_counter() if t0 is None else t0
        self._spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        # Request-wide progress counters: work units register before they
        # run and advance as they complete, so ``progress`` events stay
        # monotonic even when several layout jobs share one trace.
        self._done = 0
        self._total = 0
        self._finished = False

    def add_span(
        self,
        stage: str,
        start: float,
        duration: float,
        parent: Optional[str] = None,
        detail: Optional[str] = None,
    ) -> None:
        span: Dict[str, Any] = {
            "stage": stage,
            "offset": round(max(0.0, start - self.t0), 6),
            "seconds": round(duration, 6),
        }
        if parent is not None:
            span["parent"] = parent
        if detail is not None:
            span["detail"] = detail
        with self._lock:
            self._spans.append(span)

    def register_work(self, units: int) -> None:
        """Grow the trace's progress denominator by ``units``."""
        with self._lock:
            self._total += max(0, units)

    def advance(self, units: int) -> "tuple[int, int]":
        """Complete ``units`` of registered work; returns ``(done, total)``."""
        with self._lock:
            self._done += max(0, units)
            return self._done, self._total

    def mark_finished(self) -> bool:
        """Latch the trace terminal; True only for the first caller.

        A timed-out request's background job threads can still be running
        when the terminal ``failed`` event is journaled — the latch keeps
        their late ``progress`` events (and a second terminal) out of the
        journal, preserving the nothing-after-terminal invariant.
        """
        with self._lock:
            if self._finished:
                return False
            self._finished = True
            return True

    @property
    def finished(self) -> bool:
        with self._lock:
            return self._finished

    def spans(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._spans)

    def wall_seconds(self) -> float:
        return round(time.perf_counter() - self.t0, 6)


class Span:
    """Context manager timing one stage.

    On exit the duration is fed to an optional histogram family, an
    optional :class:`TraceContext`, and an optional plain-dict sink.
    With all three absent the cost is two ``perf_counter`` calls.
    """

    __slots__ = ("stage", "ctx", "hist", "parent", "detail", "sink", "_start")

    def __init__(
        self,
        stage: str,
        ctx: Optional[TraceContext] = None,
        hist: Optional[HistogramVec] = None,
        parent: Optional[str] = None,
        detail: Optional[str] = None,
        sink: Optional[Dict[str, float]] = None,
    ) -> None:
        self.stage = stage
        self.ctx = ctx
        self.hist = hist
        self.parent = parent
        self.detail = detail
        self.sink = sink
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start
        if self.hist is not None:
            self.hist.observe(self.stage, duration)
        if self.ctx is not None:
            self.ctx.add_span(
                self.stage, self._start, duration, parent=self.parent, detail=self.detail
            )
        if self.sink is not None:
            self.sink[self.stage] = self.sink.get(self.stage, 0.0) + duration


def assemble_trace(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Assemble journaled events for one trace id into a span tree.

    Parent links are resolved by stage name against the most recently
    seen span of that stage, so per-chunk ``node_rpc`` spans nest under
    the ``route`` span that issued them.
    """
    ordered = sorted(events, key=lambda e: e.get("seq", 0))
    status = "in_flight"
    wall_seconds: Optional[float] = None
    spans: List[Dict[str, Any]] = []
    for event in ordered:
        name = event.get("event")
        if name in TERMINAL_EVENTS:
            status = "completed" if name != "failed" else "failed"
            if isinstance(event.get("wall_seconds"), (int, float)):
                wall_seconds = float(event["wall_seconds"])
        for span in event.get("spans") or ():
            if isinstance(span, dict) and "stage" in span:
                spans.append(dict(span))

    spans.sort(key=lambda s: (s.get("offset", 0.0), s.get("stage", "")))
    by_stage: Dict[str, Dict[str, Any]] = {}
    roots: List[Dict[str, Any]] = []
    for span in spans:
        span["children"] = []
        parent_stage = span.pop("parent", None)
        parent = by_stage.get(parent_stage) if parent_stage else None
        if parent is not None:
            parent["children"].append(span)
        else:
            roots.append(span)
        by_stage[span["stage"]] = span

    trace_id = ordered[0].get("trace_id") if ordered else None
    return {
        "trace_id": trace_id,
        "status": status,
        "wall_seconds": wall_seconds,
        "events": ordered,
        "spans": roots,
    }


def format_trace_tree(trace: Dict[str, Any]) -> str:
    """Human-readable rendering for the ``repro-decompose trace`` CLI."""
    lines: List[str] = []
    lines.append(
        "trace %s  status=%s  wall=%s"
        % (
            trace.get("trace_id"),
            trace.get("status"),
            "%.6fs" % trace["wall_seconds"]
            if isinstance(trace.get("wall_seconds"), (int, float))
            else "?",
        )
    )
    for event in trace.get("events", ()):
        fields = " ".join(
            "%s=%s" % (k, v)
            for k, v in sorted(event.items())
            if k not in ("event", "trace_id", "spans", "ts", "seq")
        )
        lines.append("  event %-12s %s" % (event.get("event", "?"), fields))

    def walk(span: Dict[str, Any], depth: int) -> None:
        detail = " (%s)" % span["detail"] if span.get("detail") else ""
        lines.append(
            "  %s%-12s +%.6fs  %.6fs%s"
            % ("  " * depth, span.get("stage", "?"), span.get("offset", 0.0), span.get("seconds", 0.0), detail)
        )
        for child in span.get("children", ()):
            walk(child, depth + 1)

    for root in trace.get("spans", ()):
        walk(root, 0)
    return "\n".join(lines)
