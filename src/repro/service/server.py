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
    before.  The batch occupies a single admission slot (its members are
    ordered by the pool's priority queue, not by the HTTP queue limit) and
    the JSON response carries per-component results in canonical rank
    space (:mod:`repro.runtime.component_io`): one bad component yields an
    error entry for itself, never a failure of its batch siblings.
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
* **Priority scheduling** — admitted jobs wait in the worker pool's
  smallest-estimated-cost-first queue (with an age-based anti-starvation
  bump), so an interactive single-layout request overtakes a large batch's
  tail instead of queueing behind it.  Queue depth per priority class is
  visible in ``/stats`` and ``/metrics``.
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
import logging
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.journal import DEFAULT_SEGMENT_BYTES
from repro.obs.observer import ObsConfig, Observer
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
from repro.service.base import BaseHttpServer, ThreadedServer
from repro.service.http import (
    CLIENT_HEADER,
    DEFAULT_MAX_BODY_BYTES,
    TRACE_HEADER,
    HttpRequest,
    client_identity,
    error_body,
    json_body,
)
from repro.service.metrics import (
    METRICS_CONTENT_TYPE,
    build_info_family,
    histogram_family,
    observability_families,
    server_metrics_text,
)
from repro.service.pool import PoolConfig, WorkerPool
from repro.service.protocol import (
    ProtocolError,
    parse_batch_request,
    parse_decompose_request,
)

logger = logging.getLogger("repro.service.server")


@dataclass
class ServerConfig:
    """Static configuration of one :class:`DecompositionServer`."""

    host: str = "127.0.0.1"
    #: TCP port; ``0`` binds an ephemeral port (reported by :meth:`start`).
    port: int = 8000
    #: Worker processes; ``0`` = one per CPU.
    workers: int = 0
    #: Maximum queued + in-flight jobs before requests are shed with 503.
    queue_limit: int = 32
    #: Per-request solve budget in seconds (504 beyond it).
    request_timeout: float = 300.0
    #: Value of the ``Retry-After`` header on 503 responses.
    retry_after_seconds: int = 1
    #: Shared SQLite component cache; ``None`` = per-worker in-memory LRU.
    cache_db: Optional[str] = None
    cache_max_entries: Optional[int] = None
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    #: Seconds a connection may idle before sending a complete request.
    #: Bounds how long an idle/slowloris peer can stall a graceful drain.
    header_timeout: float = 30.0
    #: Run jobs on threads in-process instead of worker processes.
    force_inline_pool: bool = False
    #: Oldest-queued-job wait beyond which the pool's age bump overrides
    #: smallest-cost-first dispatch (0 = FIFO).
    starvation_age_seconds: float = 5.0
    #: Event-journal directory; ``None`` disables tracing, the journal and
    #: the ``/trace``//``/watch`` endpoints (the near-zero-cost default).
    journal_dir: Optional[str] = None
    #: fsync every journal append (durability over throughput).
    journal_fsync: bool = False
    #: Journal segment rotation threshold in bytes.
    journal_segment_bytes: int = DEFAULT_SEGMENT_BYTES
    #: Per-subscriber ``GET /watch`` queue bound (drop-oldest beyond it).
    watch_queue_limit: int = 256
    #: Seconds between SSE heartbeat comments on an idle ``GET /watch``.
    watch_heartbeat_seconds: float = 10.0


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

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        pre_dispatch_hook: Optional[Callable[[], None]] = None,
    ) -> None:
        self.config = config or ServerConfig()
        super().__init__(
            host=self.config.host,
            port=self.config.port,
            max_body_bytes=self.config.max_body_bytes,
            header_timeout=self.config.header_timeout,
            queue_limit=self.config.queue_limit,
            request_timeout=self.config.request_timeout,
            retry_after_seconds=self.config.retry_after_seconds,
        )
        self._pre_dispatch_hook = pre_dispatch_hook
        self.pool = WorkerPool(
            PoolConfig(
                workers=self.config.workers,
                cache_db=self.config.cache_db,
                cache_max_entries=self.config.cache_max_entries,
                force_inline=self.config.force_inline_pool,
                starvation_age_seconds=self.config.starvation_age_seconds,
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
        self._cache_stats_start: Dict[str, int] = {}
        self.obs = Observer(
            ObsConfig(
                journal_dir=self.config.journal_dir,
                journal_fsync=self.config.journal_fsync,
                journal_segment_bytes=self.config.journal_segment_bytes,
                watch_queue_limit=self.config.watch_queue_limit,
                watch_heartbeat_seconds=self.config.watch_heartbeat_seconds,
                role="server",
            )
        )
        # Queue waits observed inside the pool surface as the ``queue_wait``
        # stage of the same histogram family the spans feed.
        self.pool.stage_histograms = self.obs.stages

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
    async def _dispatch(
        self, request: HttpRequest
    ) -> Tuple[int, bytes, Optional[Dict[str, str]]]:
        route = (request.method, request.path.split("?", 1)[0])
        if route == ("GET", "/healthz"):
            return 200, json_body(self._healthz()), None
        if route in (("GET", "/stats"), ("GET", "/metrics")):
            # The cache block reads the SQLite counters — synchronous I/O
            # that can wait on a writer's lock; keep it off the event loop.
            loop = asyncio.get_running_loop()
            stats = await loop.run_in_executor(None, self._stats)
            if route[1] == "/stats":
                return 200, json_body(stats), None
            text = server_metrics_text(stats, extra_families=self._metrics_extras())
            return 200, text.encode("utf-8"), {"Content-Type": METRICS_CONTENT_TYPE}
        observability = await self._dispatch_observability(request)
        if observability is not None:
            return observability
        if route == ("POST", "/decompose"):
            return await self._serve_jobs(request, batch=False)
        if route == ("POST", "/batch"):
            return await self._serve_jobs(request, batch=True)
        if route == ("POST", "/components"):
            return await self._serve_components(request)
        known = (
            "/healthz",
            "/stats",
            "/metrics",
            "/decompose",
            "/batch",
            "/components",
            "/watch",
        )
        if route[1] in known:
            return (*error_body(405, f"{request.method} not allowed on {route[1]}"), None)
        return (*error_body(404, f"no such endpoint {route[1]!r}"), None)

    def _trace_headers(self, ctx) -> Optional[Dict[str, str]]:
        """Response headers advertising the request's trace id (or none)."""
        return {TRACE_HEADER: ctx.trace_id} if ctx is not None else None

    async def _serve_jobs(
        self, request: HttpRequest, batch: bool
    ) -> Tuple[int, bytes, Optional[Dict[str, str]]]:
        loop = asyncio.get_running_loop()
        kind = "batch" if batch else "decompose"
        ctx = self.obs.begin(request.headers.get(TRACE_HEADER.lower()))
        self.obs.emit(
            ctx,
            "received",
            kind=kind,
            client=client_identity(request.headers.get(CLIENT_HEADER.lower())),
            bytes_in=len(request.body),
        )

        def _decode_jobs() -> List[Dict]:
            # Decoding a (up to max_body_bytes) JSON body and rebuilding the
            # layout is CPU work: off the event loop, or one big request
            # stalls /healthz and every other connection.
            payload = request.json()
            if batch:
                return parse_batch_request(payload)
            return [parse_decompose_request(payload)]

        try:
            with self.obs.span("parse", ctx):
                jobs = await loop.run_in_executor(None, _decode_jobs)
        except ProtocolError as exc:
            self._counters["invalid"] += 1
            self.obs.emit(ctx, "failed", status=400, message=str(exc))
            if ctx is not None:
                logger.warning(
                    "bad %s request: %s", kind, exc, extra={"trace_id": ctx.trace_id}
                )
            return (*error_body(400, str(exc)), self._trace_headers(ctx))
        for job in jobs:
            job["priority_class"] = "batch" if batch else "interactive"
            if ctx is not None:
                job["trace_id"] = ctx.trace_id

        self.obs.emit(ctx, "divided", layouts=len(jobs))
        with self.obs.span("execute", ctx):
            results, error = await self._execute_jobs(jobs)
        if error is not None:
            status = error[0]
            self.obs.emit(ctx, "failed", status=status)
            if ctx is not None:
                logger.warning(
                    "%s request failed with %d", kind, status,
                    extra={"trace_id": ctx.trace_id},
                )
            return error[0], error[1], {**(error[2] or {}), **(self._trace_headers(ctx) or {})}
        self._counters["served"] += len(jobs)

        def _encode_response() -> bytes:
            # Mask payloads can be multi-MB; serialise off-loop too.
            if not batch:
                return json_body(results[0])
            aggregate = {
                "layouts": len(results),
                "conflicts": sum(r["conflicts"] for r in results),
                "stitches": sum(r["stitches"] for r in results),
            }
            return json_body({"items": results, "aggregate": aggregate})

        with self.obs.span("encode", ctx):
            body = await loop.run_in_executor(None, _encode_response)
        self.obs.emit(
            ctx,
            "merged",
            layouts=len(results),
            conflicts=sum(r.get("conflicts", 0) for r in results),
            stitches=sum(r.get("stitches", 0) for r in results),
            names=[str(r.get("name", "")) for r in results],
            bytes_out=len(body),
        )
        return 200, body, self._trace_headers(ctx)

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

    async def _serve_components(
        self, request: HttpRequest
    ) -> Tuple[int, bytes, Optional[Dict[str, str]]]:
        """One component micro-batch: per-component results, one admission slot."""
        loop = asyncio.get_running_loop()
        started_at = time.perf_counter()
        if request.media_type() != COMPONENTS_V2_CONTENT_TYPE:
            self._counters["invalid"] += 1
            return (
                *error_body(
                    415,
                    f"POST /components takes {COMPONENTS_V2_CONTENT_TYPE} "
                    f"frames (version {FRAME_VERSION}), "
                    f"got {request.media_type()!r}",
                ),
                None,
            )

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
                        "num_vertices": component.flat.num_vertices,
                        "priority_class": "batch",
                    }
                )
            return entries, body_trace

        try:
            entries, body_trace = await loop.run_in_executor(None, _decode_batch)
        except (ProtocolError, ComponentWireError) as exc:
            self._counters["invalid"] += 1
            self.obs.stages.observe("parse", time.perf_counter() - started_at)
            return (*error_body(400, str(exc)), None)
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
        self.obs.emit(
            ctx,
            "received",
            kind="components",
            components=len(entries),
            client=client_identity(request.headers.get(CLIENT_HEADER.lower())),
            bytes_in=len(request.body),
        )

        jobs = [entry for entry in entries if isinstance(entry, dict)]
        if ctx is not None:
            for job in jobs:
                job["trace_id"] = ctx.trace_id
        results: List = []
        execute_span = self.obs.span("execute", ctx)
        if jobs:
            # One admission slot for the whole batch: the node's overload
            # contract sheds *round trips*; the pool's priority queue owns
            # the ordering of the batch's members against other work.
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
    async def _submit_jobs(self, loop, jobs: List[Dict], release_slot):
        def _submit_all():
            """Submit every job (off-loop: a broken-pool rebuild blocks).

            Returns (submitted futures, first error); never raises, so the
            caller always knows how many slots the callbacks now own.
            """
            submitted = []
            for job in jobs:
                klass = job.pop("priority_class", "interactive")
                try:
                    future = self.pool.submit(job, klass=klass)
                except Exception as exc:  # pool broken beyond repair
                    return submitted, exc
                future.add_done_callback(release_slot)
                submitted.append(future)
            return submitted, None

        if self._pre_dispatch_hook is not None:
            await loop.run_in_executor(None, self._pre_dispatch_hook)
        return await loop.run_in_executor(None, _submit_all)

    def _map_job_error(self, exc: BaseException):
        if isinstance(exc, (ProtocolError, ComponentWireError)):
            self._counters["invalid"] += 1
            return (*error_body(400, str(exc)), None)
        if isinstance(exc, ReproError):
            self._counters["failed"] += 1
            return (*error_body(422, f"decomposition failed: {exc}"), None)
        self._counters["failed"] += 1
        return (*error_body(500, f"worker failure: {exc}"), None)

    def _timeout_message(self) -> str:
        return (
            f"decomposition exceeded {self.config.request_timeout}s; "
            "the result will be cached for a retry"
        )

    # ------------------------------------------------------------ telemetry
    def _metrics_extras(self) -> List:
        """Observability families appended to the counter-based exposition."""
        families = [build_info_family("server", self.pool.kernels)]
        families.extend(observability_families(self.obs))
        families.append(
            histogram_family(
                "repro_pool_queue_wait_seconds",
                "Seconds jobs spent in the worker pool's priority queue.",
                [({}, self.pool.queue_wait.snapshot())],
            )
        )
        return families

    def _healthz(self) -> Dict[str, object]:
        return {
            "status": "draining" if self._draining else "ok",
            "mode": self.pool.mode,
            "components_frame": FRAME_VERSION,
            "workers": self.pool.workers,
            "inflight": self._inflight,
            "uptime_seconds": self.uptime_seconds(),
        }

    def _stats(self) -> Dict[str, object]:
        stats: Dict[str, object] = {
            "server": {
                **self._counters,
                "inflight": self._inflight,
                "queue_limit": self.config.queue_limit,
                "uptime_seconds": self.uptime_seconds(),
            },
            "pool": self.pool.stats(),
        }
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

    async def _main() -> None:
        server = DecompositionServer(config)
        host, port = await server.start()
        server.install_signal_handlers()
        print(f"repro-serve: listening on http://{host}:{port}", flush=True)
        print(
            f"repro-serve: pool mode={server.pool.mode} workers={server.pool.workers} "
            f"queue_limit={config.queue_limit} "
            f"cache={'sqlite:' + str(config.cache_db) if config.cache_db else 'memory'}",
            flush=True,
        )
        await server.wait_stopped()
        print("repro-serve: drained, exiting", flush=True)

    asyncio.run(_main())
    return 0


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
