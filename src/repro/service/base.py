"""Shared asyncio HTTP chassis of the two front ends.

:class:`BaseHttpServer` owns everything about running a JSON-over-HTTP
daemon that is *not* specific to how it computes: the accept loop, the
per-connection keep-alive request loop, idle-connection timeouts, request
counters, signal handling, the graceful-drain protocol — and the request
path both front ends share.  Two front ends ride on it:

* :class:`repro.service.server.DecompositionServer` — the single-node
  decomposition service over a persistent worker pool;
* :class:`repro.cluster.coordinator.ClusterCoordinator` — the multi-node
  front end that fans components out across cache-owning nodes.

What the base owns, once
------------------------

* **Routes** — ``GET /healthz``, ``GET /stats``, ``GET /metrics``,
  ``POST /decompose``, ``POST /batch`` and the journal-backed
  ``GET /trace/<id>``.  A role adds its own routes to ``_routes``; any
  other method on a known path is a 405, any other path a 404.  Every
  route answers with one :data:`Response`.
* **The layout request path** (:meth:`_serve_jobs`) — ``parse``,
  ``execute`` and ``encode`` spans, the journal's lifecycle events, 400 on
  a :class:`~repro.service.protocol.ProtocolError` or a body that is not
  JSON, and the trace-id response header.
* **The overload contract** (:meth:`_execute_jobs`) — oversized-batch 400,
  queue-full/draining 503 + Retry-After, in-flight slot accounting released
  per job from done-callbacks (a 504'd request abandons jobs that keep
  running) and the request timeout.
* **Error statuses** (:meth:`_map_job_error`) — 400 for a bad request, 422
  for a decomposition the library refused, 500 otherwise; a role maps its
  own failures first.
* **Config** (:class:`HttpServerConfig`) — bind address, overload contract
  and journal fields, extended by each role's config.

A role supplies only how a parsed job runs (:meth:`_submit_jobs`), its
backend's lifecycle (``_on_start`` / ``_on_bind_failed`` /
``_on_shutdown``), its extra ``/healthz`` and ``/stats`` fields and its
``/metrics`` text.

Connection handling
-------------------

Connections are persistent (HTTP keep-alive): one task serves requests in a
loop until the peer closes, asks for ``Connection: close``, idles past
``header_timeout``, or the server starts draining.  While a connection is
*between* requests its writer sits in ``_idle_writers``; a drain closes
those immediately, so idle keep-alive peers can never stall shutdown — only
genuinely in-flight requests are awaited.

:func:`serve_forever` runs a front end as a process (``repro-decompose
serve``, ``cluster node`` and ``cluster coordinator``); :class:`ThreadedServer`
runs one on a background thread with a context-manager lifecycle, the
harness used by the tests, the examples and the in-process cluster
benchmarks.
"""

from __future__ import annotations

import asyncio
import functools
import logging
import signal
import threading
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.journal import DEFAULT_SEGMENT_BYTES
from repro.obs.observer import Observer, journal_hint_body
from repro.service.http import (
    DEFAULT_MAX_BODY_BYTES,
    TRACE_HEADER,
    HttpError,
    HttpRequest,
    MAX_HEADER_BYTES,
    error_body,
    json_body,
    read_request,
    wants_keep_alive,
    write_response,
)
from repro.service.metrics import METRICS_CONTENT_TYPE
from repro.service.protocol import (
    ProtocolError,
    decode_decompose_request,
    parse_batch_request,
)

#: What a route handler returns: (status, body, extra headers).
Response = Tuple[int, bytes, Optional[Dict[str, str]]]


@dataclass
class HttpServerConfig:
    """Settings every front end shares: bind address, overload contract,
    event journal.  :class:`~repro.service.server.ServerConfig` and
    :class:`~repro.cluster.coordinator.CoordinatorConfig` extend it."""

    host: str = "127.0.0.1"
    #: TCP port; ``0`` binds an ephemeral port (reported by :meth:`start`).
    port: int = 8000
    #: Maximum queued + in-flight jobs before requests are shed with 503.
    queue_limit: int = 32
    #: Per-request solve budget in seconds (504 beyond it).
    request_timeout: float = 300.0
    #: Value of the ``Retry-After`` header on 503 responses.
    retry_after_seconds: int = 1
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    #: Seconds a connection may idle before sending a complete request.
    #: Bounds how long an idle/slowloris peer can stall a graceful drain.
    header_timeout: float = 30.0
    #: Event-journal directory; ``None`` disables tracing, the journal and
    #: ``GET /trace/<id>`` (the near-zero-cost default).
    journal_dir: Optional[str] = None
    #: fsync every journal append (durability over throughput).
    journal_fsync: bool = False
    #: Journal segment rotation threshold in bytes.
    journal_segment_bytes: int = DEFAULT_SEGMENT_BYTES


class BaseHttpServer:
    """Asyncio HTTP daemon skeleton: lifecycle, connection loop, the shared
    routes and the layout request path."""

    #: Names this front end in admission-control messages, its ``/stats``
    #: block, journal records and the stage histograms it seeds.
    role = "server"
    #: What a 500 names as the failing party.
    failure_source = "worker"

    def __init__(self, config: HttpServerConfig) -> None:
        self.config = config
        self.obs = Observer(config, self.role)
        #: Logs under the role's module (``repro.service.server``,
        #: ``repro.cluster.coordinator``), so per-role log filters hold.
        self._logger = logging.getLogger(type(self).__module__)
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._idle_writers: set = set()
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        self._started_at = 0.0
        self._inflight = 0
        self._counters = {
            "received": 0,
            "served": 0,
            "rejected": 0,
            "failed": 0,
            "timeouts": 0,
            "invalid": 0,
        }
        #: ``(method, path) -> handler``; a role adds its own routes.
        self._routes: Dict[
            Tuple[str, str], Callable[[HttpRequest], Awaitable[Response]]
        ] = {
            ("GET", "/healthz"): self._serve_healthz,
            ("GET", "/stats"): self._serve_stats,
            ("GET", "/metrics"): self._serve_metrics,
            ("POST", "/decompose"): functools.partial(self._serve_jobs, batch=False),
            ("POST", "/batch"): functools.partial(self._serve_jobs, batch=True),
        }

    # -------------------------------------------------------- subclass hooks
    async def _on_start(self, loop: asyncio.AbstractEventLoop) -> None:
        """Bring up the backend before the socket binds (may raise)."""

    async def _on_bind_failed(self, loop: asyncio.AbstractEventLoop) -> None:
        """Release backend resources when the socket bind itself failed."""

    async def _on_shutdown(self, loop: asyncio.AbstractEventLoop) -> None:
        """Tear down the backend after every connection has drained."""

    async def _submit_jobs(
        self,
        loop: asyncio.AbstractEventLoop,
        jobs: List[Dict],
        release_slot,
        ctx,
    ):
        """Hand admitted jobs to the backend.

        ``ctx`` is the request's trace context (``None`` when tracing is
        off).  Returns ``(futures, first submit error)``; every returned
        future must carry ``release_slot`` as a done-callback (it owns that
        job's in-flight slot from then on).
        """
        raise NotImplementedError

    def _metrics_text(self) -> str:
        """The role's ``GET /metrics`` exposition (runs off the event loop)."""
        raise NotImplementedError

    def _map_job_error(self, exc: BaseException) -> Response:
        """Map a job failure onto a terminal error response (and counters).

        A role maps its own failures first and hands the rest here.
        """
        if isinstance(exc, ProtocolError):
            self._counters["invalid"] += 1
            return (*error_body(400, str(exc)), None)
        self._counters["failed"] += 1
        if isinstance(exc, ReproError):
            return (*error_body(422, f"decomposition failed: {exc}"), None)
        return (*error_body(500, f"{self.failure_source} failure: {exc}"), None)

    def _timeout_message(self) -> str:
        return f"decomposition exceeded {self.config.request_timeout}s"

    def _healthz(self) -> Dict[str, object]:
        """``GET /healthz`` fields every role reports; roles add their own."""
        return {
            "status": "draining" if self._draining else "ok",
            "inflight": self._inflight,
            "uptime_seconds": self.uptime_seconds(),
        }

    def _stats(self) -> Dict[str, object]:
        """``GET /stats``: the role's request counters and admission state
        under its own key; roles add their own blocks."""
        return {
            self.role: {
                **self._counters,
                "inflight": self._inflight,
                "queue_limit": self.config.queue_limit,
                "uptime_seconds": self.uptime_seconds(),
            }
        }

    # ---------------------------------------------------------------- routes
    async def _dispatch(self, request: HttpRequest) -> Response:
        """Route one request: the route table, then ``GET /trace/<id>``, then
        405 for a known path and 404 for any other."""
        path = request.path.split("?", 1)[0]
        handler = self._routes.get((request.method, path))
        if handler is not None:
            return await handler(request)
        if request.method == "GET" and path.startswith("/trace/"):
            return await self._serve_trace(path[len("/trace/") :])
        if path in {known for _, known in self._routes}:
            return (*error_body(405, f"{request.method} not allowed on {path}"), None)
        return (*error_body(404, f"no such endpoint {path!r}"), None)

    async def _serve_healthz(self, request: HttpRequest) -> Response:
        return 200, json_body(self._healthz()), None

    async def _serve_stats(self, request: HttpRequest) -> Response:
        # A role's stats may read disk (the server's SQLite cache counters
        # can wait on a writer's lock): keep it off the event loop.
        loop = asyncio.get_running_loop()
        return 200, json_body(await loop.run_in_executor(None, self._stats)), None

    async def _serve_metrics(self, request: HttpRequest) -> Response:
        loop = asyncio.get_running_loop()
        text = await loop.run_in_executor(None, self._metrics_text)
        return 200, text.encode("utf-8"), {"Content-Type": METRICS_CONTENT_TYPE}

    async def _serve_trace(self, trace_id: str) -> Response:
        """``GET /trace/<id>``: the assembled span tree of one journaled
        request, or 404 with an enablement hint without a journal."""
        if not self.obs.enabled:
            return 404, journal_hint_body(), None
        # Journal reads hit disk: keep them off the event loop.
        payload = await asyncio.get_running_loop().run_in_executor(
            None, self.obs.trace_payload, trace_id
        )
        if payload is None:
            return (*error_body(404, f"no journaled events for trace {trace_id!r}"), None)
        return 200, json_body(payload), None

    def _trace_headers(self, ctx) -> Optional[Dict[str, str]]:
        """Response headers advertising the request's trace id (or none)."""
        return {TRACE_HEADER: ctx.trace_id} if ctx is not None else None

    async def _serve_jobs(self, request: HttpRequest, batch: bool) -> Response:
        """``POST /decompose`` and ``POST /batch``: parse, execute, encode."""
        loop = asyncio.get_running_loop()
        kind = "batch" if batch else "decompose"
        ctx = self.obs.begin(request.headers.get(TRACE_HEADER.lower()))
        self.obs.emit(
            ctx,
            "received",
            kind=kind,
            bytes_in=len(request.body),
        )

        def _decode_jobs() -> List[Dict]:
            # Decoding a (up to max_body_bytes) JSON body into packed
            # outlines is CPU work: off the event loop, or one big request
            # stalls /healthz and every other connection.  Polygons are
            # decomposed in the worker, not here.
            payload = request.json()
            if batch:
                return parse_batch_request(payload)
            return [decode_decompose_request(payload)]

        try:
            with self.obs.span("parse", ctx):
                jobs = await loop.run_in_executor(None, _decode_jobs)
        except (ProtocolError, HttpError) as exc:
            # HttpError: an empty or non-JSON body (``request.json()``).
            status = exc.status if isinstance(exc, HttpError) else 400
            self._counters["invalid"] += 1
            self.obs.emit(ctx, "failed", status=status, message=str(exc))
            if ctx is not None:
                self._logger.warning(
                    "bad %s request: %s", kind, exc, extra={"trace_id": ctx.trace_id}
                )
            return (*error_body(status, str(exc)), self._trace_headers(ctx))

        self.obs.emit(ctx, "divided", layouts=len(jobs))
        with self.obs.span("execute", ctx):
            results, error = await self._execute_jobs(jobs, ctx=ctx)
        if error is not None:
            status = error[0]
            self.obs.emit(ctx, "failed", status=status)
            if ctx is not None:
                self._logger.warning(
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

    # ---------------------------------------------------------- job control
    async def _execute_jobs(
        self,
        jobs: List[Dict],
        ctx=None,
        units: Optional[int] = None,
        collect_errors: bool = False,
    ) -> Tuple[Optional[List], Optional[Response]]:
        """Admission control + backend execution of parsed job dicts.

        Returns ``(results, None)`` on success or ``(None, error response)``
        when the request was shed, timed out or failed — the single place
        where queue limits, in-flight slot accounting and the overload
        contract live, shared by every job endpoint of every subclass.
        ``ctx`` passes through to :meth:`_submit_jobs`.

        ``units`` is how many admission slots the request occupies (default:
        one per job).  A component micro-batch passes ``units=1`` — it is one
        node round trip whose members queue in the backend like any other
        jobs, so admission control sheds *requests*, not components.  With
        ``collect_errors`` a failing job becomes its exception in the results
        list instead of failing the whole request (per-component granularity
        for batch endpoints).
        """
        loop = asyncio.get_running_loop()
        queue_limit = self.config.queue_limit
        retry_after = self.config.retry_after_seconds
        units = len(jobs) if units is None else max(1, min(units, len(jobs)))
        if units > queue_limit:
            # Would never fit, even on an idle server: a permanent-client
            # error, not transient overload — 503 + Retry-After would send
            # the client into an infinite retry loop.
            self._counters["invalid"] += 1
            status, body = error_body(
                400,
                f"batch of {len(jobs)} layouts exceeds the {self.role}'s "
                f"queue capacity of {queue_limit}; split the batch",
            )
            return None, (status, body, None)
        if self._draining or self._inflight + units > queue_limit:
            self._counters["rejected"] += 1
            reason = f"{self.role} is draining" if self._draining else "queue is full"
            status, body = error_body(
                503, f"{reason}; retry later", retry_after=retry_after
            )
            return None, (status, body, {"Retry-After": str(retry_after)})

        # Slots are held from admission until the jobs leave the backend —
        # on the happy path that is when gather() resolves, but a 504'd
        # request abandons jobs that keep running, so slots are released
        # from job done-callbacks instead of this coroutine.  With
        # units < len(jobs) the last `units` completions each free one slot,
        # so the accounting stays exact for micro-batches too.
        self._inflight += units
        state = {"remaining": len(jobs)}

        def _finish_one() -> None:
            if state["remaining"] <= units:
                self._inflight -= 1
            state["remaining"] -= 1

        def _release_slot(_future=None) -> None:
            try:
                loop.call_soon_threadsafe(_finish_one)
            except RuntimeError:  # loop already closed (late drain)
                _finish_one()

        unsubmitted = len(jobs)
        try:
            futures, submit_error = await self._submit_jobs(
                loop, jobs, _release_slot, ctx
            )
            unsubmitted = len(jobs) - len(futures)
            if submit_error is not None:
                raise submit_error
            try:
                results = await asyncio.wait_for(
                    asyncio.gather(
                        *[asyncio.wrap_future(f) for f in futures],
                        return_exceptions=collect_errors,
                    ),
                    timeout=self.config.request_timeout,
                )
            except asyncio.TimeoutError:
                self._counters["timeouts"] += 1
                return None, (*error_body(504, self._timeout_message()), None)
        except Exception as exc:
            return None, self._map_job_error(exc)
        finally:
            # Only the never-submitted jobs' slots; the rest are released by
            # their done-callbacks when the backend really finishes them.
            for _ in range(unsubmitted):
                _finish_one()
        return list(results), None

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> Tuple[str, int]:
        """Start the backend and the accept loop; return the bound (host, port)."""
        loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        await self._on_start(loop)
        try:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.config.host,
                port=self.config.port,
                limit=MAX_HEADER_BYTES,
            )
        except Exception:
            # e.g. EADDRINUSE: don't leak whatever _on_start brought up.
            await self._on_bind_failed(loop)
            raise
        self._started_at = time.monotonic()
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a graceful drain."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(self.shutdown())
            )

    async def shutdown(self) -> None:
        """Drain: stop accepting, finish in-flight work, stop the backend."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Idle keep-alive connections are waiting for a request that will
        # never be served: close them now so only in-flight work is awaited.
        for writer in list(self._idle_writers):
            writer.close()
        # wait_closed() does not wait for handler coroutines (3.11): drain
        # the connections we track ourselves, then the backend.
        if self._connections:
            await asyncio.gather(*list(self._connections), return_exceptions=True)
        await self._on_shutdown(asyncio.get_running_loop())
        self.obs.close()
        if self._stopped is not None:
            self._stopped.set()

    async def wait_stopped(self) -> None:
        """Block until a drain (signal- or call-initiated) completes."""
        assert self._stopped is not None, "server was never started"
        await self._stopped.wait()

    def uptime_seconds(self) -> float:
        return round(time.monotonic() - self._started_at, 3)

    # -------------------------------------------------------------- requests
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                if self._draining:
                    return
                self._idle_writers.add(writer)
                try:
                    request = await asyncio.wait_for(
                        read_request(reader, self.config.max_body_bytes),
                        timeout=self.config.header_timeout,
                    )
                except asyncio.TimeoutError:
                    # Idle or trickling peer: close it.  Also what bounds a
                    # drain for connections that slipped past the idle-writer
                    # close — they finish within the timeout.
                    return
                except HttpError as exc:
                    self._counters["invalid"] += 1
                    status, body = error_body(exc.status, exc.message)
                    await write_response(writer, status, body, close=True)
                    return
                finally:
                    self._idle_writers.discard(writer)
                if request is None:
                    return
                self._counters["received"] += 1
                try:
                    status, body, extra = await self._dispatch(request)
                except HttpError as exc:
                    self._counters["invalid"] += 1
                    status, body = error_body(exc.status, exc.message)
                    extra = None
                except Exception as exc:  # defensive: a handler bug must not kill the loop
                    self._counters["failed"] += 1
                    status, body = error_body(500, f"internal error: {exc}")
                    extra = None
                keep_alive = wants_keep_alive(request) and not self._draining
                await write_response(
                    writer, status, body, extra_headers=extra, close=not keep_alive
                )
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(task)
            self._idle_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def serve_forever(
    server: BaseHttpServer, program: str, summary: Callable[[], str]
) -> int:
    """Run a front end as a process until SIGTERM/SIGINT drains it.

    The entry point behind ``run_server`` and ``run_coordinator``.  The
    first stdout line is ``<program>: listening on http://HOST:PORT`` — the
    machine-parsable line the subprocess tests, the examples and the
    benchmark harness read an ephemeral port from — then ``summary()``
    once the backend is up, and a last line once the drain completed.
    """

    async def _main() -> None:
        host, port = await server.start()
        server.install_signal_handlers()
        print(f"{program}: listening on http://{host}:{port}", flush=True)
        print(f"{program}: {summary()}", flush=True)
        await server.wait_stopped()
        print(f"{program}: drained, exiting", flush=True)

    asyncio.run(_main())
    return 0


class ThreadedServer:
    """Any :class:`BaseHttpServer` on a background thread (tests, examples).

    ::

        with ThreadedServer(server) as (host, port):
            ...

    ``stop()`` performs the same graceful drain as SIGTERM.
    """

    def __init__(self, server: BaseHttpServer) -> None:
        self.server = server
        self.address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self, timeout: float = 30.0) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server thread did not start in time")
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        assert self.address is not None
        return self.address

    def _run(self) -> None:
        async def _main() -> None:
            try:
                self.address = await self.server.start()
                self._loop = asyncio.get_running_loop()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                return
            self._ready.set()
            await self.server.wait_stopped()

        asyncio.run(_main())

    def stop(self, timeout: float = 60.0) -> None:
        """Drain and join; idempotent."""
        if self._thread is None or not self._thread.is_alive():
            return
        assert self._loop is not None
        asyncio.run_coroutine_threadsafe(self.server.shutdown(), self._loop)
        self._thread.join(timeout)

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
