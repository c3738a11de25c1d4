"""The cluster coordinator: sharded decomposition with cache-affinity routing.

:class:`ClusterCoordinator` is a drop-in front end for the single-node
service — it accepts the exact ``POST /decompose`` / ``POST /batch`` schema
of :mod:`repro.service.protocol` — but instead of solving on a local worker
pool it **shards by component**:

1. the layout's decomposition graph is built locally and divided into
   connected components (the same division the serial pipeline performs);
2. identical components are deduplicated through their canonical hash
   (:mod:`repro.runtime.hashing`) — the coordinator solves each distinct
   component once per request, like the PR 1 scheduler;
3. each distinct component is routed to the node *owning* its hash on the
   consistent-hash ring (:mod:`repro.cluster.ring`), and everything one
   node owns for this layout is **micro-batched** into a single
   ``POST /components`` round trip (bounded by ``batch_max_components`` /
   ``batch_max_bytes``) over a keep-alive connection — request
   amplification is O(owning nodes) per layout, not O(components);
4. rank-space colorings come back and are merged deterministically, so the
   cluster's response is **byte-identical** to a direct
   :meth:`Decomposer.decompose` run — sharding changes where components are
   solved, never what is computed.

Cache affinity is the point of the routing rule: a component hash has one
owner node, so that node's component cache accumulates every solution for
its key range, and any coordinator routing the same standard cell later
gets a cache hit (observable via ``repro_server_component_cache_hits_total``
on the node and ``component_cache_hits`` on the coordinator).

Failure handling: a batch request that dies on a *connection* error marks
the node dead (:meth:`Membership.mark_dead`), rebalances the ring and
re-routes only that batch's components to their new owners — results from
the dead node's earlier batches are kept, and each component's re-route
count is bounded by ``max_reroutes`` — so killing a node mid-batch degrades
throughput, never correctness.  Solve counters (``components_routed``,
per-node ``routed``, cache hits) increment only on *completed* solves;
re-routed attempts land exclusively in the distinct ``reroutes`` counter,
so ``/metrics`` never double-counts a component that failed over.  A node
answering ``503`` (queue full) is *not* dead; its backpressure propagates
through the coordinator as a ``503`` with ``Retry-After``, keeping the
overload contract end-to-end.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.decomposer import DecompositionResult, make_colorer
from repro.core.division import DivisionReport
from repro.core.evaluation import (
    DecompositionSolution,
    check_complete,
    count_conflicts,
    count_stitches,
)
from repro.core.options import DecomposerOptions
from repro.errors import ReproError
from repro.geometry.layout import Layout
from repro.graph.components import connected_components
from repro.graph.construction import build_decomposition_graph
from repro.graph.decomposition_graph import DecompositionGraph
from repro.cluster.membership import Membership, NoNodesAvailable
from repro.graph.flat import FlatGraph
from repro.obs.federate import FederationConfig, MetricsFederator
from repro.obs.journal import DEFAULT_SEGMENT_BYTES
from repro.obs.observer import ObsConfig, Observer
from repro.obs.slo import DEFAULT_SLO_SPEC, SloEngine, parse_slo_spec
from repro.runtime.component_io import (
    ComponentErrorEntry,
    ComponentSolve,
    ComponentWireError,
    parse_components_response,
)
from repro.runtime.hashing import canonical_component_key
from repro.runtime.wire_binary import encode_components_frame, frame_size
from repro.service.base import BaseHttpServer, ThreadedServer
from repro.service.client import ServiceClient, ServiceError
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
    counter_family,
    gauge_family,
    observability_families,
    render_metrics,
)
from repro.service.protocol import (
    ProtocolError,
    build_options,
    parse_batch_request,
    parse_decompose_request,
    result_to_payload,
)

logger = logging.getLogger("repro.cluster.coordinator")

#: Node id the coordinator federates itself under in ``/cluster/metrics``:
#: its own exposition is rendered locally (no HTTP loopback) and merged
#: next to the peer scrapes, so ``up{node="coordinator"}`` and the
#: coordinator's stage histograms live in the same fleet view.
SELF_NODE_ID = "coordinator"


class NodeBusyError(ReproError):
    """A node shed a component with 503 — propagated, not retried elsewhere.

    Re-routing overload to another node would defeat both the cache
    affinity (the component would be solved and stored off its owner) and
    the backpressure contract, so the coordinator surfaces the 503.
    """

    def __init__(self, node_id: str, retry_after: Optional[float]) -> None:
        super().__init__(f"node {node_id} is at capacity")
        self.node_id = node_id
        self.retry_after = retry_after


class NodeRequestError(ReproError):
    """A node answered a component request with a non-503 error (HTTP 502)."""

    def __init__(self, node_id: str, status: int, message: str) -> None:
        super().__init__(f"node {node_id} failed component request: HTTP {status}: {message}")
        self.node_id = node_id
        self.status = status


class ClusterRoutingError(ReproError):
    """Re-routing a component exhausted ``max_reroutes`` attempts (HTTP 502)."""


class _NodeConnectionLost(ReproError):
    """Internal: a batch died on a connection error; its node left the ring.

    Carries the failed batch so the routing loop can re-route exactly those
    components — results already returned by the node's earlier batches are
    unaffected.
    """

    def __init__(self, node_id: str) -> None:
        super().__init__(f"lost connection to node {node_id}")
        self.node_id = node_id


@dataclass
class CoordinatorConfig:
    """Static configuration of one :class:`ClusterCoordinator`."""

    host: str = "127.0.0.1"
    #: TCP port; ``0`` binds an ephemeral port (reported by :meth:`start`).
    port: int = 8100
    #: Static node list, each ``host:port`` of a ``repro-decompose cluster node``.
    peers: List[str] = field(default_factory=list)
    #: Maximum queued + in-flight layout jobs before requests are shed with 503.
    queue_limit: int = 16
    #: Per-request solve budget in seconds (504 beyond it).
    request_timeout: float = 300.0
    #: Value of the ``Retry-After`` header on 503 responses.
    retry_after_seconds: int = 1
    #: Seconds between heartbeat probes of the peer nodes.
    probe_interval: float = 2.0
    #: Heartbeat / health-probe connection timeout in seconds.
    probe_timeout: float = 2.0
    #: Consecutive failed probes before a node is marked dead.
    failure_threshold: int = 2
    #: Virtual nodes per physical node on the consistent-hash ring.
    virtual_nodes: int = 64
    #: Re-route attempts per component before giving up (``0`` = one try per
    #: configured peer, the sensible default for total-cluster death).
    max_reroutes: int = 0
    #: Threads fanning component requests out to nodes.
    fanout_threads: int = 8
    #: Threads executing layout jobs (graph construction + merge).
    job_threads: int = 4
    #: Per-component node request timeout in seconds.
    component_timeout: float = 120.0
    #: Most components shipped per ``POST /components`` micro-batch.
    batch_max_components: int = 64
    #: Approximate byte bound per micro-batch (serialised component wires);
    #: a single component larger than this still ships, alone.
    batch_max_bytes: int = 4 * 1024 * 1024
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    #: Seconds a connection may idle before sending a complete request.
    header_timeout: float = 30.0
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
    #: Seconds between federation scrapes of every node's ``/metrics``.
    scrape_interval: float = 5.0
    #: Connection/read timeout of one federation scrape.
    scrape_timeout: float = 2.0
    #: Seconds after which a node's last scrape ages out of the merged
    #: ``GET /cluster/metrics`` view; ``None`` means 3x ``scrape_interval``.
    metrics_staleness_seconds: Optional[float] = None
    #: Declarative SLO target for ``GET /slo`` and the ``repro_slo_*``
    #: gauges, e.g. ``p99=2s,err=0.1%``.
    slo: str = DEFAULT_SLO_SPEC
    #: Rolling window (seconds) of the error-budget burn-rate accounting.
    slo_window_seconds: float = 300.0


class ClusterCoordinator(BaseHttpServer):
    """Multi-node decomposition front end with consistent-hash routing."""

    queue_noun = "coordinator"

    def __init__(self, config: CoordinatorConfig) -> None:
        super().__init__(
            host=config.host,
            port=config.port,
            max_body_bytes=config.max_body_bytes,
            header_timeout=config.header_timeout,
            queue_limit=config.queue_limit,
            request_timeout=config.request_timeout,
            retry_after_seconds=config.retry_after_seconds,
        )
        self.config = config
        self.membership = Membership(
            config.peers,
            probe_interval=config.probe_interval,
            probe_timeout=config.probe_timeout,
            failure_threshold=config.failure_threshold,
            virtual_nodes=config.virtual_nodes,
        )
        self._clients = {
            node.node_id: ServiceClient(
                node.host, node.port, timeout=config.component_timeout
            )
            for node in self.membership.nodes()
        }
        self._counters.update(
            {
                "components_routed": 0,
                "component_cache_hits": 0,
                "reroutes": 0,
                "node_requests": 0,
            }
        )
        self._routed: Dict[str, int] = {
            node_id: 0 for node_id in sorted(self._clients)
        }
        #: Guards the counters mutated from fan-out threads.
        self._counter_lock = threading.Lock()
        self._jobs_executor: Optional[ThreadPoolExecutor] = None
        self._fanout_executor: Optional[ThreadPoolExecutor] = None
        self.obs = Observer(
            ObsConfig(
                journal_dir=config.journal_dir,
                journal_fsync=config.journal_fsync,
                journal_segment_bytes=config.journal_segment_bytes,
                watch_queue_limit=config.watch_queue_limit,
                watch_heartbeat_seconds=config.watch_heartbeat_seconds,
                role="coordinator",
            )
        )
        # --- cluster observability control plane -------------------------
        # A bad --slo spec must fail construction, not the first /slo hit.
        self.slo_engine = SloEngine(
            parse_slo_spec(config.slo), config.slo_window_seconds
        )
        #: Dedicated scrape clients: the fan-out clients run with the long
        #: component timeout, while a scrape must give up fast so one hung
        #: node cannot stall the whole federation round.
        self._scrape_clients = {
            node.node_id: ServiceClient(
                node.host, node.port, timeout=config.scrape_timeout
            )
            for node in self.membership.nodes()
        }
        staleness = config.metrics_staleness_seconds
        if staleness is None:
            staleness = 3.0 * config.scrape_interval
        targets = [(SELF_NODE_ID, self._own_metrics_text)]
        targets += [
            (node_id, client.metrics_text)
            for node_id, client in sorted(self._scrape_clients.items())
        ]
        self.federator = MetricsFederator(
            targets,
            FederationConfig(
                scrape_interval=config.scrape_interval,
                staleness_seconds=staleness,
            ),
            liveness=self._live_node_ids,
            after_round=self._record_slo_sample,
        )

    # ------------------------------------------------------------ lifecycle
    async def _on_start(self, loop: asyncio.AbstractEventLoop) -> None:
        # Jobs and fan-out get separate pools: a layout job blocks a jobs
        # thread while it waits on its components, so sharing one pool would
        # deadlock under load.
        self._jobs_executor = ThreadPoolExecutor(
            max_workers=max(1, self.config.job_threads),
            thread_name_prefix="repro-coord-job",
        )
        self._fanout_executor = ThreadPoolExecutor(
            max_workers=max(1, self.config.fanout_threads),
            thread_name_prefix="repro-coord-fanout",
        )
        self.membership.start()
        self.federator.start()

    async def _on_bind_failed(self, loop: asyncio.AbstractEventLoop) -> None:
        await loop.run_in_executor(None, self._close_backend)

    async def _on_shutdown(self, loop: asyncio.AbstractEventLoop) -> None:
        await loop.run_in_executor(None, self._close_backend)

    def _close_backend(self) -> None:
        self.federator.stop()
        self.membership.stop()
        if self._jobs_executor is not None:
            self._jobs_executor.shutdown(wait=True)
            self._jobs_executor = None
        if self._fanout_executor is not None:
            self._fanout_executor.shutdown(wait=True)
            self._fanout_executor = None
        for client in self._clients.values():
            client.close()
        for client in self._scrape_clients.values():
            client.close()

    # ------------------------------------------------------------- requests
    async def _dispatch(
        self, request: HttpRequest
    ) -> Tuple[int, bytes, Optional[Dict[str, str]]]:
        route = (request.method, request.path.split("?", 1)[0])
        if route == ("GET", "/healthz"):
            return 200, json_body(self._healthz()), None
        if route == ("GET", "/stats"):
            return 200, json_body(self._stats()), None
        if route == ("GET", "/metrics"):
            text = coordinator_metrics_text(
                self._stats(), extra_families=self._metrics_extras()
            )
            return 200, text.encode("utf-8"), {"Content-Type": METRICS_CONTENT_TYPE}
        if route == ("GET", "/ring"):
            return 200, json_body(self._ring_view()), None
        if route == ("GET", "/cluster/metrics"):
            return await self._serve_cluster_metrics(request)
        if route == ("GET", "/slo"):
            return await self._serve_slo(request)
        observability = await self._dispatch_observability(request)
        if observability is not None:
            return observability
        if route == ("POST", "/decompose"):
            return await self._serve_jobs(request, batch=False)
        if route == ("POST", "/batch"):
            return await self._serve_jobs(request, batch=True)
        known = (
            "/healthz",
            "/stats",
            "/metrics",
            "/ring",
            "/cluster/metrics",
            "/slo",
            "/decompose",
            "/batch",
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
        if ctx is not None:
            for job in jobs:
                job["_obs_ctx"] = ctx

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
            if not batch:
                return json_body(results[0])
            aggregate = {
                "layouts": len(results),
                "conflicts": sum(r["conflicts"] for r in results),
                "stitches": sum(r["stitches"] for r in results),
            }
            return json_body({"items": results, "aggregate": aggregate})

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

    # ----------------------------------------------------- job control hooks
    async def _submit_jobs(self, loop, jobs: List[Dict], release_slot):
        assert self._jobs_executor is not None
        futures = []
        for job in jobs:
            future = self._jobs_executor.submit(self._decompose_job, job)
            future.add_done_callback(release_slot)
            futures.append(future)
        return futures, None

    def _map_job_error(self, exc: BaseException):
        if isinstance(exc, NodeBusyError):
            # Backpressure from a node's admission control: propagate it with
            # the node's own Retry-After hint so clients back off end-to-end.
            self._counters["rejected"] += 1
            retry_after = exc.retry_after or self.config.retry_after_seconds
            status, body = error_body(
                503, f"{exc}; retry later", retry_after=retry_after
            )
            return status, body, {"Retry-After": str(retry_after)}
        if isinstance(exc, NoNodesAvailable):
            self._counters["rejected"] += 1
            status, body = error_body(
                503, f"{exc}; retry later", retry_after=self.config.retry_after_seconds
            )
            return status, body, {"Retry-After": str(self.config.retry_after_seconds)}
        if isinstance(exc, (NodeRequestError, ClusterRoutingError, ComponentWireError)):
            self._counters["failed"] += 1
            return (*error_body(502, str(exc)), None)
        if isinstance(exc, ProtocolError):
            self._counters["invalid"] += 1
            return (*error_body(400, str(exc)), None)
        if isinstance(exc, ReproError):
            self._counters["failed"] += 1
            return (*error_body(422, f"decomposition failed: {exc}"), None)
        self._counters["failed"] += 1
        return (*error_body(500, f"coordinator failure: {exc}"), None)

    def _timeout_message(self) -> str:
        return f"decomposition exceeded {self.config.request_timeout}s"

    # --------------------------------------------------- clustered decompose
    def _decompose_job(self, job: Dict) -> Dict:
        """Decompose one layout job by sharding its components across nodes.

        Runs on a jobs thread; blocking.  The construction, division,
        dedup-by-hash and merge mirror :class:`repro.runtime.scheduler`
        exactly, which is what keeps cluster output byte-identical to a
        direct :class:`Decomposer` run.
        """
        ctx = job.pop("_obs_ctx", None)
        start_total = time.perf_counter()
        layout = Layout.from_dict(job["layout"])
        options = build_options(
            colors=job["colors"],
            algorithm=job["algorithm"],
            min_spacing=job.get("min_spacing"),
        )
        with self.obs.span("build", ctx, parent="execute"):
            construction = build_decomposition_graph(
                layout, layer=job["layer"], options=options.construction
            )
        graph = construction.graph
        report = DivisionReport()
        report.num_vertices = graph.num_vertices
        start_color = time.perf_counter()
        coloring = self._color_graph(graph, options, report, ctx)
        color_seconds = time.perf_counter() - start_color
        check_complete(graph, coloring, options.num_colors)
        solution = DecompositionSolution(
            coloring=coloring,
            num_colors=options.num_colors,
            conflicts=count_conflicts(graph, coloring),
            stitches=count_stitches(graph, coloring),
            algorithm=make_colorer(
                options.algorithm, options.num_colors, options.algorithm_options
            ).name,
            color_assignment_seconds=color_seconds,
            graph=graph,
            alpha=options.algorithm_options.alpha,
        )
        solution.total_seconds = time.perf_counter() - start_total
        result = DecompositionResult(
            solution=solution,
            construction=construction,
            division_report=report,
            options=options,
        )
        return result_to_payload(job["name"], job["layer"], result)

    def _color_graph(
        self,
        graph: DecompositionGraph,
        options: DecomposerOptions,
        report: DivisionReport,
        ctx=None,
    ) -> Dict[int, int]:
        """Divide, route, and deterministically merge one graph's components."""
        if graph.num_vertices == 0:
            return {}
        with self.obs.span("divide", ctx, parent="execute"):
            if options.division.independent_components:
                components = connected_components(graph)
            else:
                components = [graph.vertices()]
        report.num_connected_components = len(components)

        with self.obs.span("hash", ctx, parent="execute"):
            subgraphs: Dict[int, DecompositionGraph] = {}
            groups: Dict[str, List[int]] = {}
            for index, component in enumerate(components):
                subgraph = graph.subgraph(component)
                key = canonical_component_key(
                    subgraph,
                    options.num_colors,
                    options.algorithm,
                    options.algorithm_options,
                    options.division,
                )
                subgraphs[index] = subgraph
                groups.setdefault(key, []).append(index)

            # One flat-array form per distinct component, flattened once (the
            # same memoised snapshot the canonical key above was streamed
            # from) — reused across chunks and re-routes.
            # Ordered by first appearance so chunking (and therefore request
            # traffic) is deterministic.
            ordered_keys = sorted(groups, key=lambda key: groups[key][0])
            flats = {
                key: subgraphs[groups[key][0]].to_arrays() for key in ordered_keys
            }
        self.obs.emit(
            ctx,
            "divided",
            components=len(components),
            distinct=len(ordered_keys),
        )
        with self.obs.span("route", ctx, parent="execute"):
            solves = self._solve_components(
                ordered_keys, flats, options.num_colors, options.algorithm, ctx
            )

        with self.obs.span("merge", ctx, parent="execute"):
            coloring: Dict[int, int] = {}
            for key, indices in sorted(groups.items(), key=lambda kv: kv[1][0]):
                solve = solves[key]
                for index in indices:
                    coloring.update(solve.coloring_for(subgraphs[index]))
                    report.merge_from(solve.report)
        return coloring

    # ------------------------------------------------------- batched routing
    def _solve_components(
        self,
        ordered_keys: List[str],
        flats: Dict[str, FlatGraph],
        colors: int,
        algorithm: str,
        ctx=None,
    ) -> Dict[str, ComponentSolve]:
        """Micro-batch the distinct components to their owner nodes.

        Groups the pending keys by ring owner, ships each node one
        ``POST /components`` request per chunk (bounded by the batch limits),
        and loops: a chunk that dies with its node re-routes through the
        rebalanced ring while every already-returned solve is kept.
        """
        limit = self.config.max_reroutes or max(1, len(self.membership))
        if ctx is not None:
            ctx.register_work(len(ordered_keys))
        sizes = {key: frame_size(flat, key) for key, flat in flats.items()}
        solves: Dict[str, ComponentSolve] = {}
        attempts: Dict[str, int] = {key: 0 for key in ordered_keys}
        pending = list(ordered_keys)
        while pending:
            assignment: Dict[str, List[str]] = {}
            for key in pending:
                owner = self.membership.owner(key)  # raises NoNodesAvailable
                assignment.setdefault(owner, []).append(key)
            tasks: List[Tuple[str, List[str]]] = []
            for node_id in sorted(assignment):
                for chunk in self._chunk_keys(assignment[node_id], sizes):
                    tasks.append((node_id, chunk))
            assert self._fanout_executor is not None
            futures = [
                self._fanout_executor.submit(
                    self._send_batch, node_id, chunk, flats, colors, algorithm, ctx
                )
                for node_id, chunk in tasks
            ]
            retry: List[str] = []
            first_error: Optional[BaseException] = None
            # Always drain every future (abandoning them would leak fan-out
            # threads into later requests), then re-raise the first failure.
            for (node_id, chunk), future in zip(tasks, futures):
                try:
                    outcomes = future.result()
                except _NodeConnectionLost as exc:
                    # The chunk died with its connection: nothing from it was
                    # solved, so exactly its components re-route.  Counted in
                    # the distinct reroutes counter only — the solve counters
                    # wait for completions.
                    with self._counter_lock:
                        self._counters["reroutes"] += len(chunk)
                    for key in chunk:
                        attempts[key] += 1
                        if attempts[key] > limit and first_error is None:
                            first_error = ClusterRoutingError(
                                f"component {key[:12]} re-routed {attempts[key]} "
                                f"times without finding a live node"
                            )
                            first_error.__cause__ = exc
                    retry.extend(chunk)
                    continue
                except BaseException as exc:
                    if first_error is None:
                        first_error = exc
                    continue
                for key, outcome in zip(chunk, outcomes):
                    if isinstance(outcome, ComponentSolve):
                        solves[key] = outcome
                    elif first_error is None:
                        assert isinstance(outcome, ComponentErrorEntry)
                        first_error = NodeRequestError(
                            node_id, outcome.status, outcome.message
                        )
                completed = sum(
                    1 for item in outcomes if isinstance(item, ComponentSolve)
                )
                if ctx is not None and completed:
                    done, total = ctx.advance(completed)
                    self.obs.emit(
                        ctx, "progress", solved=done, total=total, node=node_id
                    )
            if first_error is not None:
                raise first_error
            pending = retry
        return solves

    def _chunk_keys(
        self, keys: List[str], sizes: Dict[str, int]
    ) -> List[List[str]]:
        """Split one node's keys into batches under the component/byte caps."""
        max_components = max(1, self.config.batch_max_components)
        max_bytes = max(1, self.config.batch_max_bytes)
        chunks: List[List[str]] = []
        chunk: List[str] = []
        chunk_bytes = 0
        for key in keys:
            size = sizes[key]
            if chunk and (
                len(chunk) >= max_components or chunk_bytes + size > max_bytes
            ):
                chunks.append(chunk)
                chunk, chunk_bytes = [], 0
            chunk.append(key)
            chunk_bytes += size
        if chunk:
            chunks.append(chunk)
        return chunks

    def _post_components(
        self,
        client: ServiceClient,
        chunk: List[str],
        flats: Dict[str, FlatGraph],
        colors: int,
        algorithm: str,
        trace_id: Optional[str] = None,
    ) -> Dict:
        """POST one chunk as a binary components frame.

        Each component's canonical key rides along, so the node never
        re-hashes; the trace id rides the frame's trace field (and the
        header).
        """
        with self._counter_lock:
            self._counters["node_requests"] += 1
        frame = encode_components_frame(
            [(key, flats[key]) for key in chunk], colors, algorithm, trace_id=trace_id
        )
        return client.components_binary(frame, trace_id=trace_id)

    def _send_batch(
        self,
        node_id: str,
        chunk: List[str],
        flats: Dict[str, FlatGraph],
        colors: int,
        algorithm: str,
        ctx=None,
    ) -> List[object]:
        """Ship one micro-batch to one node; runs on a fan-out thread."""
        client = self._clients[node_id]
        trace_id = ctx.trace_id if ctx is not None else None
        try:
            with self.obs.span(
                "node_rpc", ctx, parent="route",
                detail=f"{node_id} x{len(chunk)}",
            ):
                response = self._post_components(
                    client, chunk, flats, colors, algorithm, trace_id
                )
        except ServiceError as exc:
            if exc.status == 503:
                raise NodeBusyError(node_id, exc.retry_after) from exc
            if exc.is_timeout:
                # The node accepted the batch and is still solving: slow
                # components, not a dead node.  Marking it dead would
                # cascade the same heavy solves across every node; if the
                # node really is partitioned away, the heartbeat probes
                # will time out too and retire it through membership.
                raise NodeRequestError(
                    node_id, 504, f"component batch timed out: {exc}"
                ) from exc
            if exc.status == 0:
                # Hard connection failure: the node is gone.  Shrink the
                # ring now; the routing loop re-routes this chunk to the
                # new owners of its key ranges.
                self.membership.mark_dead(node_id, str(exc))
                raise _NodeConnectionLost(node_id) from exc
            raise NodeRequestError(node_id, exc.status, str(exc)) from exc
        outcomes = parse_components_response(response)
        if len(outcomes) != len(chunk):
            raise ComponentWireError(
                f"node {node_id} answered {len(outcomes)} results "
                f"for a batch of {len(chunk)} components"
            )
        # Completed solves only: a re-routed attempt must never inflate the
        # solve counters (it shows up in `reroutes` instead).
        solved = [item for item in outcomes if isinstance(item, ComponentSolve)]
        with self._counter_lock:
            self._counters["components_routed"] += len(solved)
            self._routed[node_id] += len(solved)
            self._counters["component_cache_hits"] += sum(
                1 for item in solved if item.cache_hit
            )
        return outcomes

    # ------------------------------------------------------------ telemetry
    def _metrics_extras(self) -> List:
        """Observability families appended to the counter-based exposition."""
        families = [build_info_family("coordinator", "none")]
        families.extend(observability_families(self.obs))
        return families

    # -------------------------------------------- cluster observability
    def _own_metrics_text(self) -> str:
        """The coordinator's node-level exposition, as the federator's
        local scrape target (identical to what ``GET /metrics`` serves)."""
        return coordinator_metrics_text(
            self._stats(), extra_families=self._metrics_extras()
        )

    def _live_node_ids(self) -> set:
        alive = self.membership.alive_ids()
        alive.add(SELF_NODE_ID)
        return alive

    def _record_slo_sample(self) -> None:
        """Feed one (total, errors) counter sample per federation round.

        Errors are the coordinator's own terminal failures + timeouts;
        shed requests (503) count as traffic but not as budget spend —
        backpressure is the overload contract working, not an outage.
        """
        counters = self._counters
        served = counters.get("served", 0)
        failed = counters.get("failed", 0)
        timeouts = counters.get("timeouts", 0)
        rejected = counters.get("rejected", 0)
        self.slo_engine.record_errors(
            time.monotonic(),
            served + failed + timeouts + rejected,
            failed + timeouts,
        )

    def _slo_latency_snapshot(self):
        """Cluster-merged execute-stage histogram: every request-execute
        span in the fleet (coordinator layouts + node micro-batches)."""
        return self.federator.merged_histogram(
            "repro_stage_duration_seconds", {"stage": "execute"}
        )

    def _cluster_metrics_text(self) -> str:
        families = list(self.federator.merged_families())
        families.extend(self.slo_engine.families(self._slo_latency_snapshot()))
        return render_metrics(families)

    @staticmethod
    def _wants_refresh(request: HttpRequest) -> bool:
        query = request.path.partition("?")[2]
        return any(
            part.split("=", 1)[0] == "refresh"
            for part in query.split("&")
            if part
        )

    async def _serve_cluster_metrics(
        self, request: HttpRequest
    ) -> Tuple[int, bytes, Optional[Dict[str, str]]]:
        loop = asyncio.get_running_loop()
        # ?refresh=1 (and the very first hit, before the background round)
        # forces a synchronous scrape so tests and operators get a
        # deterministic, current view instead of waiting out the interval.
        if self._wants_refresh(request) or not self.federator.scraped:
            await loop.run_in_executor(None, self.federator.scrape_once)
        text = await loop.run_in_executor(None, self._cluster_metrics_text)
        return 200, text.encode("utf-8"), {"Content-Type": METRICS_CONTENT_TYPE}

    async def _serve_slo(
        self, request: HttpRequest
    ) -> Tuple[int, bytes, Optional[Dict[str, str]]]:
        loop = asyncio.get_running_loop()
        if self._wants_refresh(request) or not self.federator.scraped:
            await loop.run_in_executor(None, self.federator.scrape_once)
        payload = await loop.run_in_executor(
            None, lambda: self.slo_engine.status(self._slo_latency_snapshot())
        )
        payload["nodes"] = {
            "alive": self.membership.alive_count(),
            "total": len(self.membership),
        }
        return 200, json_body(payload), None

    def _healthz(self) -> Dict[str, object]:
        return {
            "status": "draining" if self._draining else "ok",
            "role": "coordinator",
            "nodes": {
                "alive": self.membership.alive_count(),
                "total": len(self.membership),
            },
            "inflight": self._inflight,
            "uptime_seconds": self.uptime_seconds(),
        }

    def _stats(self) -> Dict[str, object]:
        with self._counter_lock:
            counters = dict(self._counters)
            routed = dict(self._routed)
        membership = self.membership.snapshot()
        nodes = {
            node_id: {**state, "routed": routed.get(node_id, 0)}
            for node_id, state in membership.pop("nodes").items()
        }
        return {
            "coordinator": {
                **counters,
                "inflight": self._inflight,
                "queue_limit": self.config.queue_limit,
                "uptime_seconds": self.uptime_seconds(),
            },
            "nodes": nodes,
            "membership": membership,
        }

    def _ring_view(self) -> Dict[str, object]:
        ring = self.membership.ring()
        return {
            "virtual_nodes": ring.virtual_nodes,
            "alive_nodes": list(ring.nodes),
            "all_nodes": sorted(self._clients),
        }


def coordinator_metrics_text(stats: Dict, extra_families: Optional[List] = None) -> str:
    """Render a coordinator ``/stats`` snapshot as Prometheus text."""
    coordinator: Dict = stats.get("coordinator", {})
    nodes: Dict = stats.get("nodes", {})
    membership: Dict = stats.get("membership", {})
    families = [
        counter_family(
            "repro_coordinator_requests_total",
            "HTTP requests by terminal result.",
            [
                ({"result": result}, coordinator.get(result, 0))
                for result in ("received", "served", "rejected", "failed", "timeouts", "invalid")
            ],
        ),
        counter_family(
            "repro_coordinator_components_routed_total",
            "Components routed to each node by consistent-hash ownership.",
            [
                ({"node": node_id}, state.get("routed", 0))
                for node_id, state in sorted(nodes.items())
            ],
        ),
        counter_family(
            "repro_coordinator_component_cache_hits_total",
            "Routed components the owner node answered from its cache "
            "(cache-affinity hit count).",
            [({}, coordinator.get("component_cache_hits", 0))],
        ),
        counter_family(
            "repro_coordinator_reroutes_total",
            "Components re-routed after a node connection failure (failed "
            "attempts land only here; completed solves land only in "
            "repro_coordinator_components_routed_total — never both).",
            [({}, coordinator.get("reroutes", 0))],
        ),
        counter_family(
            "repro_coordinator_node_requests_total",
            "HTTP requests sent to nodes (micro-batched: one per owning "
            "node per layout when batches fit the caps).",
            [({}, coordinator.get("node_requests", 0))],
        ),
        counter_family(
            "repro_coordinator_rebalances_total",
            "Consistent-hash ring rebuilds caused by liveness transitions.",
            [({}, membership.get("rebalances", 0))],
        ),
        gauge_family(
            "repro_coordinator_nodes",
            "Cluster nodes by liveness.",
            [
                ({"state": "alive"}, membership.get("alive", 0)),
                (
                    {"state": "dead"},
                    membership.get("total", 0) - membership.get("alive", 0),
                ),
            ],
        ),
        gauge_family(
            "repro_coordinator_inflight_jobs",
            "Layout jobs admitted and not yet finished (queue depth).",
            [({}, coordinator.get("inflight", 0))],
        ),
        gauge_family(
            "repro_coordinator_queue_limit",
            "Admission-control bound on queued + in-flight layout jobs.",
            [({}, coordinator.get("queue_limit", 0))],
        ),
        gauge_family(
            "repro_coordinator_uptime_seconds",
            "Seconds since the coordinator started.",
            [({}, coordinator.get("uptime_seconds", 0.0))],
        ),
    ]
    if extra_families:
        families.extend(extra_families)
    return render_metrics(families)


def run_coordinator(config: CoordinatorConfig) -> int:
    """Blocking entry point used by ``repro-decompose cluster coordinator``.

    Prints the bound address on startup (machine-parsable first line) and
    drains cleanly on SIGTERM/SIGINT.
    """

    async def _main() -> None:
        coordinator = ClusterCoordinator(config)
        host, port = await coordinator.start()
        coordinator.install_signal_handlers()
        print(f"repro-coordinator: listening on http://{host}:{port}", flush=True)
        print(
            f"repro-coordinator: peers={','.join(config.peers)} "
            f"virtual_nodes={config.virtual_nodes} "
            f"queue_limit={config.queue_limit}",
            flush=True,
        )
        await coordinator.wait_stopped()
        print("repro-coordinator: drained, exiting", flush=True)

    asyncio.run(_main())
    return 0


class CoordinatorThread(ThreadedServer):
    """A :class:`ClusterCoordinator` on a background thread (tests, examples).

    ::

        with CoordinatorThread(CoordinatorConfig(port=0, peers=[...])) as (host, port):
            client = ClusterClient(host, port)
            ...
    """

    def __init__(self, config: CoordinatorConfig) -> None:
        super().__init__(ClusterCoordinator(config))
