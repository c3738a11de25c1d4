"""The asyncio decomposition server.

:class:`DecompositionServer` is the long-running front end of the farm: the
:class:`~repro.service.base.BaseHttpServer` chassis (keep-alive HTTP/1.1
accept loop) in front of the persistent :class:`~repro.service.pool.WorkerPool`.

Endpoints
---------

``POST /decompose``
    One layout in (JSON or base64 GDS), masks + summary out.  See
    :mod:`repro.service.protocol` for the exact schema.
``POST /batch``
    Many layouts in one request; items share the pool and the cache.
``POST /components``
    A **micro-batch** of decomposition-graph *components* in one round
    trip, as one binary frame (:mod:`repro.runtime.wire_binary`) — how a
    cluster coordinator ships everything this node owns for one layout.
    Components are the cluster's work unit: a coordinator routes each one
    to its cache-owning node, so a node answers from its component cache
    whenever any coordinator has routed the same canonical component here
    before.  The batch occupies a single admission slot (its members queue
    in the worker pool like any other jobs) and the JSON response carries
    per-component results in canonical rank space
    (:mod:`repro.runtime.component_io`): one bad component yields an error
    entry for itself, never a failure of its batch siblings.
``GET /healthz``
    Liveness: status, pool mode, the components frame version this node
    decodes, in-flight count, uptime.
``GET /stats``
    Request counters, pool counters, component-affinity counters, and
    component-cache effectiveness (cumulative *and* since-startup when the
    SQLite cache is attached).
``GET /metrics``
    The same counters in Prometheus text exposition format.

Operational behaviour
---------------------

* **Admission control** — at most ``queue_limit`` jobs may be queued or
  running; beyond that the server answers ``503`` with a ``Retry-After``
  header instead of building an unbounded backlog.  Load shedding at the
  door is what keeps tail latency sane under overload.
* **First-in, first-out dispatch** — admitted jobs wait in the worker
  pool's queue and run in arrival order whenever a worker is free.  Queue
  depth and queue wait are visible in ``/stats`` and ``/metrics``.
* **Per-request timeouts** — a solve that exceeds ``request_timeout``
  seconds answers ``504``; the worker finishes (and caches) in the
  background, so a retry is typically a cache hit.
* **Graceful drain** — SIGTERM/SIGINT stop the accept loop, let every
  admitted request finish, shut the pool down, then exit.  In-flight work is
  never dropped.

Results are bit-identical to direct :meth:`Decomposer.decompose` calls; the
server adds scheduling, not semantics.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.runtime.component_io import (
    ComponentWireError,
    component_error_entry,
    options_for,
)
from repro.runtime.wire_binary import (
    COMPONENTS_V2_CONTENT_TYPE,
    FRAME_VERSION,
    decode_components_frame,
)
from repro.service.base import (
    BaseHttpServer,
    HttpServerConfig,
    Response,
    ThreadedServer,
    serve_forever,
)
from repro.service.http import (
    TRACE_HEADER,
    HttpRequest,
    error_body,
    json_body,
)
from repro.service.metrics import (
    build_info_family,
    histogram_family,
    observability_families,
    server_metrics_text,
)
from repro.service.pool import PoolConfig, WorkerPool
from repro.service.protocol import ProtocolError


@dataclass
class ServerConfig(HttpServerConfig):
    """Static configuration of one :class:`DecompositionServer`."""

    #: Worker processes; ``0`` = one per CPU.
    workers: int = 0
    #: Shared SQLite component cache; ``None`` = per-worker in-memory LRU.
    cache_db: Optional[str] = None
    cache_max_entries: Optional[int] = None
    #: Run jobs on threads in-process instead of worker processes.
    force_inline_pool: bool = False


class DecompositionServer(BaseHttpServer):
    """Asyncio JSON-over-HTTP decomposition service.

    Parameters
    ----------
    config:
        Static settings; see :class:`ServerConfig`.
    pre_dispatch_hook:
        Test seam: a blocking callable invoked (on an executor thread) after
        a request is admitted but before its jobs reach the pool.  Lets the
        lifecycle tests hold a request in flight deterministically; ``None``
        in production.
    """

    config: ServerConfig

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        pre_dispatch_hook: Optional[Callable[[], None]] = None,
    ) -> None:
        super().__init__(config or ServerConfig())
        self._pre_dispatch_hook = pre_dispatch_hook
        self.pool = WorkerPool(
            PoolConfig(
                workers=self.config.workers,
                cache_db=self.config.cache_db,
                cache_max_entries=self.config.cache_max_entries,
                force_inline=self.config.force_inline_pool,
            )
        )
        self._counters.update(
            {
                "components": 0,
                "component_cache_hits": 0,
                "component_batches": 0,
                "batched_components": 0,
            }
        )
        self._routes[("POST", "/components")] = self._serve_components
        self._cache_stats_start: Dict[str, int] = {}

    # ------------------------------------------------------------ lifecycle
    async def _on_start(self, loop: asyncio.AbstractEventLoop) -> None:
        # Pool startup forks workers and may probe-fallback: keep the event
        # loop responsive while it happens.
        await loop.run_in_executor(None, self.pool.start)
        if self.config.cache_db is not None:
            try:
                self._cache_stats_start = await loop.run_in_executor(
                    None, self._read_cache_totals
                )
            except Exception:
                await loop.run_in_executor(None, lambda: self.pool.shutdown(wait=False))
                raise

    async def _on_bind_failed(self, loop: asyncio.AbstractEventLoop) -> None:
        # e.g. EADDRINUSE: don't leak the freshly-forked worker pool.
        await loop.run_in_executor(None, lambda: self.pool.shutdown(wait=False))

    async def _on_shutdown(self, loop: asyncio.AbstractEventLoop) -> None:
        await loop.run_in_executor(None, lambda: self.pool.shutdown(wait=True))

    # ------------------------------------------------------------- requests
    def _observe_component_timings(self, outcome: Dict, ctx) -> None:
        """Feed one worker result's ``timings`` into histograms/spans, then
        strip it so response bytes stay identical with tracing on or off."""
        timings = outcome.pop("timings", None)
        if not isinstance(timings, dict):
            return
        lookup = float(timings.get("cache_lookup", 0.0))
        solve = float(timings.get("solve", 0.0))
        self.obs.stages.observe("cache_lookup", lookup)
        if not outcome.get("cache_hit"):
            self.obs.stages.observe("solve", solve)
        if ctx is not None:
            now = time.perf_counter()
            detail = outcome.get("key")
            ctx.add_span("cache_lookup", now - solve - lookup, lookup, parent="execute", detail=detail)
            if not outcome.get("cache_hit"):
                ctx.add_span("solve", now - solve, solve, parent="execute", detail=detail)

    async def _serve_components(self, request: HttpRequest) -> Response:
        """One component micro-batch: per-component results, one admission slot."""
        loop = asyncio.get_running_loop()
        started_at = time.perf_counter()

        def _decode_batch() -> Tuple[List[object], Optional[str]]:
            # Packed flat-array frames, no JSON in sight.  Envelope damage
            # is a request-level 400; a bad graph frame inside an intact
            # entry fails only that component.
            colors, algorithm, body_trace, frames = decode_components_frame(
                request.body
            )
            if not frames:
                raise ComponentWireError("components frame carries no components")
            options_for(colors, algorithm)  # envelope-level 400
            entries: List[object] = []
            for component in frames:
                if component.error is not None:
                    entries.append(ComponentWireError(component.error))
                    continue
                entries.append(
                    {
                        "kind": "component",
                        "graph_frame": component.frame,
                        "key": component.key,
                        "colors": colors,
                        "algorithm": algorithm,
                    }
                )
            return entries, body_trace

        body_trace = refusal = None
        if request.media_type() != COMPONENTS_V2_CONTENT_TYPE:
            refusal = (
                415,
                f"POST /components takes {COMPONENTS_V2_CONTENT_TYPE} "
                f"frames (version {FRAME_VERSION}), "
                f"got {request.media_type()!r}",
            )
        else:
            try:
                entries, body_trace = await loop.run_in_executor(None, _decode_batch)
            except (ProtocolError, ComponentWireError) as exc:
                refusal = (400, str(exc))
        parse_done = time.perf_counter()
        self.obs.stages.observe("parse", parse_done - started_at)
        # Trace id priority: the frame's trace field, then the header.  ``t0``
        # is the request's arrival so the trace's wall time covers the parse.
        ctx = self.obs.begin(
            body_trace or request.headers.get(TRACE_HEADER.lower()),
            started_at=started_at,
        )
        if ctx is not None:
            ctx.add_span("parse", started_at, parse_done - started_at)
        if refusal is not None:
            self._counters["invalid"] += 1
            self.obs.emit(ctx, "received", kind="components", bytes_in=len(request.body))
            self.obs.emit(ctx, "failed", status=refusal[0], message=refusal[1])
            return (*error_body(*refusal), self._trace_headers(ctx))
        self.obs.emit(
            ctx,
            "received",
            kind="components",
            components=len(entries),
            bytes_in=len(request.body),
        )

        jobs = [entry for entry in entries if isinstance(entry, dict)]
        results: List = []
        execute_span = self.obs.span("execute", ctx)
        if jobs:
            # One admission slot for the whole batch: the node's overload
            # contract sheds *round trips*, not components.
            with execute_span:
                results, error = await self._execute_jobs(
                    jobs, units=1, collect_errors=True
                )
            if error is not None:
                self.obs.emit(ctx, "failed", status=error[0])
                return error[0], error[1], {
                    **(error[2] or {}),
                    **(self._trace_headers(ctx) or {}),
                }

        job_results = iter(results)
        solved = 0
        cache_hits = 0
        errors = 0
        encoded: List[Dict] = []
        for entry in entries:
            if isinstance(entry, ComponentWireError):
                errors += 1
                encoded.append(component_error_entry(400, str(entry)))
                continue
            outcome = next(job_results)
            if isinstance(outcome, BaseException):
                errors += 1
                encoded.append(self._component_failure_entry(outcome))
                continue
            self._observe_component_timings(outcome, ctx)
            solved += 1
            if outcome.get("cache_hit"):
                cache_hits += 1
            encoded.append(outcome)
        self._counters["served"] += 1
        self._counters["component_batches"] += 1
        self._counters["batched_components"] += len(entries)
        self._counters["components"] += solved
        self._counters["component_cache_hits"] += cache_hits
        with self.obs.span("encode", ctx):
            body = await loop.run_in_executor(
                None, lambda: json_body({"results": encoded})
            )
        self.obs.emit(
            ctx,
            "completed",
            solved=solved,
            total=len(entries),
            errors=errors,
            cache_hits=cache_hits,
            bytes_out=len(body),
        )
        return 200, body, self._trace_headers(ctx)

    @staticmethod
    def _component_failure_entry(exc: BaseException) -> Dict:
        """Map one failed component job onto its per-entry error envelope."""
        if isinstance(exc, (ProtocolError, ComponentWireError)):
            return component_error_entry(400, str(exc))
        if isinstance(exc, ReproError):
            return component_error_entry(422, f"component solve failed: {exc}")
        return component_error_entry(500, f"worker failure: {exc}")

    # ----------------------------------------------------- job control hooks
    async def _submit_jobs(self, loop, jobs: List[Dict], release_slot, ctx):
        def _submit_all():
            """Submit every job (off-loop: a broken-pool rebuild blocks).

            Returns (submitted futures, first error); never raises, so the
            caller always knows how many slots the callbacks now own.
            """
            submitted = []
            for job in jobs:
                try:
                    future = self.pool.submit(job)
                except Exception as exc:  # pool broken beyond repair
                    return submitted, exc
                future.add_done_callback(release_slot)
                submitted.append(future)
            return submitted, None

        if self._pre_dispatch_hook is not None:
            await loop.run_in_executor(None, self._pre_dispatch_hook)
        return await loop.run_in_executor(None, _submit_all)

    def _timeout_message(self) -> str:
        return f"{super()._timeout_message()}; the result will be cached for a retry"

    # ------------------------------------------------------------ telemetry
    def _metrics_text(self) -> str:
        return server_metrics_text(
            self._stats(),
            extra_families=[
                build_info_family("server", self.pool.kernels),
                *observability_families(self.obs),
                histogram_family(
                    "repro_pool_queue_wait_seconds",
                    "Seconds jobs waited in the worker pool's queue for a worker.",
                    [({}, self.pool.queue_wait.snapshot())],
                ),
            ],
        )

    def _healthz(self) -> Dict[str, object]:
        return {
            **super()._healthz(),
            "mode": self.pool.mode,
            "components_frame": FRAME_VERSION,
            "workers": self.pool.workers,
        }

    def _stats(self) -> Dict[str, object]:
        stats = super()._stats()
        stats["pool"] = self.pool.stats()
        if self.config.cache_db is not None:
            totals = self._read_cache_totals()
            session = {
                key: totals[key] - self._cache_stats_start.get(key, 0)
                for key in ("hits", "misses", "stores", "evictions")
            }
            stats["cache"] = {
                "backend": "sqlite",
                "path": str(self.config.cache_db),
                **totals,
                "session": session,
            }
        else:
            stats["cache"] = {
                "backend": "memory",
                "note": "per-worker LRU caches; counters not aggregated",
            }
        return stats

    def _read_cache_totals(self) -> Dict[str, int]:
        from repro.runtime.sqlite_cache import read_persistent_stats

        zeros = {"hits": 0, "misses": 0, "stores": 0, "evictions": 0, "entries": 0}
        assert self.config.cache_db is not None
        return read_persistent_stats(self.config.cache_db) or zeros


def run_server(config: ServerConfig) -> int:
    """Blocking entry point used by ``repro-decompose serve``.

    Prints the bound address on startup (machine-parsable first line, which
    is how the subprocess tests and examples discover an ephemeral port) and
    drains cleanly on SIGTERM/SIGINT.
    """
    server = DecompositionServer(config)
    cache = f"sqlite:{config.cache_db}" if config.cache_db else "memory"
    return serve_forever(
        server,
        "repro-serve",
        lambda: (
            f"pool mode={server.pool.mode} workers={server.pool.workers} "
            f"queue_limit={config.queue_limit} cache={cache}"
        ),
    )


class ServerThread(ThreadedServer):
    """A :class:`DecompositionServer` on a background thread (tests, examples).

    ::

        with ServerThread(ServerConfig(port=0)) as (host, port):
            client = ServiceClient(host, port)
            ...

    ``stop()`` performs the same graceful drain as SIGTERM.
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        pre_dispatch_hook: Optional[Callable[[], None]] = None,
    ) -> None:
        super().__init__(DecompositionServer(config, pre_dispatch_hook=pre_dispatch_hook))
