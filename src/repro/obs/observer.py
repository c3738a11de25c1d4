"""Per-server observability facade.

One :class:`Observer` instance lives on each front end (decomposition node
or cluster coordinator), built by its
:class:`~repro.service.base.BaseHttpServer`, and owns the pieces the
request path talks to:
the per-stage latency histograms (always on — the cost is one dict/bucket
update per span), and, only when a journal directory is configured, the
trace-id minting and the JSONL event journal behind ``GET /trace/<id>``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Union

from repro.obs.hist import HistogramVec
from repro.obs.journal import EventJournal
from repro.obs.trace import (
    Span,
    TERMINAL_EVENTS,
    TraceContext,
    assemble_trace,
    new_trace_id,
    valid_trace_id,
)

#: Stages each role times; seeding them keeps ``/metrics`` histogram
#: series present (at zero) from the first scrape, so dashboards never
#: have to special-case an empty family.  A server times ``cache_lookup``
#: and ``solve`` per component of a ``POST /components`` batch only: a
#: ``/decompose`` or ``/batch`` job colors its whole layout in one worker
#: call that reports no per-component timings, so on a server answering
#: layouts those two read 0.
SERVER_STAGES = ("parse", "execute", "cache_lookup", "solve", "encode")
COORDINATOR_STAGES = (
    "parse",
    "execute",
    "build",
    "divide",
    "hash",
    "route",
    "node_rpc",
    "merge",
    "encode",
)


class Observer:
    """Tracing + histograms + journal for one server.

    ``config`` is the front end's
    :class:`~repro.service.base.HttpServerConfig`, read for its journal
    fields; ``role`` names the process in journal records and picks the
    stages seeded at zero.
    """

    def __init__(self, config, role: str) -> None:
        self.role = role
        self.enabled = config.journal_dir is not None
        self.stages = HistogramVec("stage")
        stage_names = COORDINATOR_STAGES if role == "coordinator" else SERVER_STAGES
        for stage in stage_names:
            self.stages.labels(stage)
        self.journal: Optional[EventJournal] = None
        if self.enabled:
            self.journal = EventJournal(
                config.journal_dir,
                max_segment_bytes=config.journal_segment_bytes,
                fsync=config.journal_fsync,
            )

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()

    # -- tracing ----------------------------------------------------------

    def begin(
        self,
        supplied: Optional[str] = None,
        started_at: Optional[float] = None,
    ) -> Optional[TraceContext]:
        """Mint (or adopt) a trace context; ``None`` when tracing is off."""
        if not self.enabled:
            return None
        trace_id = supplied if valid_trace_id(supplied) else new_trace_id()
        return TraceContext(trace_id, t0=started_at)

    def span(
        self,
        stage: str,
        ctx: Optional[TraceContext] = None,
        parent: Optional[str] = None,
        detail: Optional[str] = None,
        sink: Optional[Dict[str, float]] = None,
    ) -> Span:
        return Span(stage, ctx=ctx, hist=self.stages, parent=parent, detail=detail, sink=sink)

    # -- events -----------------------------------------------------------

    def emit(
        self,
        ctx: Optional[Union[TraceContext, str]],
        event: str,
        **fields: Any,
    ) -> None:
        """Journal one lifecycle event (no-op when disabled)."""
        if ctx is None or self.journal is None:
            return
        record: Dict[str, Any] = {"event": event, "role": self.role}
        if isinstance(ctx, TraceContext):
            if event in TERMINAL_EVENTS:
                if not ctx.mark_finished():
                    return  # a terminal event already journaled this trace
            elif ctx.finished:
                return  # late event from a background thread; keep it out
            record["trace_id"] = ctx.trace_id
            if event in TERMINAL_EVENTS:
                record.setdefault("spans", ctx.spans())
                record.setdefault("wall_seconds", ctx.wall_seconds())
        else:
            record["trace_id"] = ctx
        record.update(fields)
        self.journal.append(record)

    # -- read side --------------------------------------------------------

    def trace_payload(self, trace_id: str) -> Optional[Dict[str, Any]]:
        if self.journal is None:
            return None
        events = self.journal.events_for(trace_id)
        if not events:
            return None
        return assemble_trace(events)


def journal_hint_body() -> bytes:
    """404 body of ``GET /trace/<id>`` without a journal: how to enable it."""
    return json.dumps(
        {
            "error": {
                "status": 404,
                "message": (
                    "event journal is disabled; start the server with "
                    "--journal DIR to enable /trace"
                ),
            }
        },
        sort_keys=True,
    ).encode("utf-8")
