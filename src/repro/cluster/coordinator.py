"""The cluster coordinator: sharded decomposition with cache-affinity routing.

:class:`ClusterCoordinator` is a drop-in front end for the single-node
service — it accepts the exact ``POST /decompose`` / ``POST /batch`` schema
of :mod:`repro.service.protocol` — but instead of solving on a local worker
pool it **shards by component**:

1. the layout runs through the library's own flow —
   :meth:`Decomposer.decompose` over
   :func:`repro.runtime.pipeline.color_graph` — which builds the graph
   locally, divides it into connected components and deduplicates them
   through their canonical hash (:mod:`repro.runtime.hashing`);
2. the pipeline's executor here is :meth:`ClusterCoordinator._solve_components`:
   each distinct component is routed to the node *owning* its hash on the
   consistent-hash ring (:mod:`repro.cluster.ring`), and everything one
   node owns for this layout is **micro-batched** into a single
   ``POST /components`` round trip (bounded by ``batch_max_components`` /
   ``batch_max_bytes``) over a keep-alive connection — request
   amplification is O(owning nodes) per layout, not O(components);
3. rank-space colorings come back and the pipeline merges them exactly as
   it merges in-process solves, so the cluster's response is
   **byte-identical** to a direct :meth:`Decomposer.decompose` run —
   sharding changes where components are solved, never what is computed.

Cache affinity is the point of the routing rule: a component hash has one
owner node, so that node's component cache accumulates every solution for
its key range, and any coordinator routing the same standard cell later
gets a cache hit (observable via ``repro_server_component_cache_hits_total``
on the node and ``component_cache_hits`` on the coordinator).

Failure handling: a batch request that dies on a *connection* error marks
the node dead (:meth:`Membership.mark_dead`), rebalances the ring and
re-routes only that batch's components to their new owners — results from
the dead node's earlier batches are kept, and each component is re-routed
at most once per configured peer — so killing a node mid-batch degrades
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
import functools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.decomposer import Decomposer
from repro.core.options import DecomposerOptions
from repro.errors import ReproError
from repro.cluster.membership import Membership, NoNodesAvailable
from repro.graph.flat import FlatGraph
from repro.runtime.component_io import (
    ComponentErrorEntry,
    ComponentSolve,
    ComponentWireError,
    parse_components_response,
)
from repro.runtime.pipeline import Batch
from repro.runtime.wire_binary import encode_components_frame, frame_size
from repro.service.base import (
    BaseHttpServer,
    HttpServerConfig,
    Response,
    ThreadedServer,
    serve_forever,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.http import HttpRequest, error_body, json_body
from repro.service.metrics import (
    build_info_family,
    counter_family,
    gauge_family,
    observability_families,
    render_metrics,
)
from repro.service.protocol import run_job

#: Threads executing layout jobs (graph construction + merge).
JOB_THREADS = 4


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
    """Re-routing a component exhausted one try per configured peer (HTTP 502)."""


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
class CoordinatorConfig(HttpServerConfig):
    """Static configuration of one :class:`ClusterCoordinator`."""

    #: TCP port; ``0`` binds an ephemeral port (reported by :meth:`start`).
    port: int = 8100
    #: Maximum queued + in-flight layout jobs before requests are shed with 503.
    queue_limit: int = 16
    #: Static node list, each ``host:port`` of a ``repro-decompose cluster node``.
    peers: List[str] = field(default_factory=list)
    #: Seconds between heartbeat probes of the peer nodes.
    probe_interval: float = 2.0
    #: Heartbeat / health-probe connection timeout in seconds.
    probe_timeout: float = 2.0
    #: Consecutive failed probes before a node is marked dead.
    failure_threshold: int = 2
    #: Virtual nodes per physical node on the consistent-hash ring.
    virtual_nodes: int = 64
    #: Threads fanning component requests out to nodes.
    fanout_threads: int = 8
    #: Per-component node request timeout in seconds.
    component_timeout: float = 120.0
    #: Most components shipped per ``POST /components`` micro-batch.
    batch_max_components: int = 64
    #: Approximate byte bound per micro-batch (serialised component wires);
    #: a single component larger than this still ships, alone.
    batch_max_bytes: int = 4 * 1024 * 1024


class ClusterCoordinator(BaseHttpServer):
    """Multi-node decomposition front end with consistent-hash routing."""

    role = "coordinator"
    failure_source = "coordinator"
    config: CoordinatorConfig

    def __init__(self, config: CoordinatorConfig) -> None:
        super().__init__(config)
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
        self._routes[("GET", "/ring")] = self._serve_ring
        self._routed: Dict[str, int] = {
            node_id: 0 for node_id in sorted(self._clients)
        }
        #: Guards the counters mutated from fan-out threads.
        self._counter_lock = threading.Lock()
        self._jobs_executor: Optional[ThreadPoolExecutor] = None
        self._fanout_executor: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------ lifecycle
    async def _on_start(self, loop: asyncio.AbstractEventLoop) -> None:
        # Jobs and fan-out get separate pools: a layout job blocks a jobs
        # thread while it waits on its components, so sharing one pool would
        # deadlock under load.
        self._jobs_executor = ThreadPoolExecutor(
            max_workers=JOB_THREADS,
            thread_name_prefix="repro-coord-job",
        )
        self._fanout_executor = ThreadPoolExecutor(
            max_workers=max(1, self.config.fanout_threads),
            thread_name_prefix="repro-coord-fanout",
        )
        self.membership.start()

    async def _on_bind_failed(self, loop: asyncio.AbstractEventLoop) -> None:
        await loop.run_in_executor(None, self._close_backend)

    async def _on_shutdown(self, loop: asyncio.AbstractEventLoop) -> None:
        await loop.run_in_executor(None, self._close_backend)

    def _close_backend(self) -> None:
        self.membership.stop()
        if self._jobs_executor is not None:
            self._jobs_executor.shutdown(wait=True)
            self._jobs_executor = None
        if self._fanout_executor is not None:
            self._fanout_executor.shutdown(wait=True)
            self._fanout_executor = None
        for client in self._clients.values():
            client.close()

    # ----------------------------------------------------- job control hooks
    async def _submit_jobs(self, loop, jobs: List[Dict], release_slot, ctx):
        assert self._jobs_executor is not None
        futures = []
        for job in jobs:
            future = self._jobs_executor.submit(self._decompose_job, job, ctx)
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
        return super()._map_job_error(exc)

    # --------------------------------------------------- clustered decompose
    def _decompose_job(self, job: Dict, ctx) -> Dict:
        """Decompose one layout job, solving its components on the nodes.

        Runs on a jobs thread; blocking.  The flow is the library's own
        :meth:`Decomposer.decompose`, with :meth:`_solve_components` as the
        pipeline's executor and the stages timed as children of the
        request's ``execute`` span.
        """
        return run_job(
            job,
            Decomposer,
            executor=functools.partial(self._solve_components, ctx=ctx),
            span=lambda stage: self.obs.span(stage, ctx, parent="execute"),
        )

    # ------------------------------------------------------- batched routing
    def _solve_components(
        self, batch: Batch, options: DecomposerOptions, ctx=None
    ) -> List[ComponentSolve]:
        """Cluster executor: micro-batch distinct components to their owners.

        Groups the batch's keys by ring owner, ships each node one
        ``POST /components`` request per chunk (bounded by the batch limits),
        and loops: a chunk that dies with its node re-routes through the
        rebalanced ring while every already-returned solve is kept.
        """
        keys = [key for key, _ in batch]
        # The memoised flat form each key was streamed from, reused across
        # chunks and re-routes.
        flats = {key: graph.to_arrays() for key, graph in batch}
        colors, algorithm = options.num_colors, options.algorithm
        self.obs.emit(ctx, "divided", distinct=len(keys))
        limit = max(1, len(self.membership))
        if ctx is not None:
            ctx.register_work(len(keys))
        sizes = {key: frame_size(flat, key) for key, flat in flats.items()}
        solves: Dict[str, ComponentSolve] = {}
        attempts: Dict[str, int] = {key: 0 for key in keys}
        pending = list(keys)
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
        return [solves[key] for key in keys]

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

    # -------------------------------------------------------- observability
    def _metrics_text(self) -> str:
        """The coordinator's own exposition (``GET /metrics``)."""
        return coordinator_metrics_text(
            self._stats(),
            extra_families=[
                build_info_family("coordinator", "none"),
                *observability_families(self.obs),
            ],
        )

    def _healthz(self) -> Dict[str, object]:
        return {
            **super()._healthz(),
            "role": "coordinator",
            "nodes": {
                "alive": self.membership.alive_count(),
                "total": len(self.membership),
            },
        }

    def _stats(self) -> Dict[str, object]:
        with self._counter_lock:
            stats = super()._stats()
            routed = dict(self._routed)
        membership = self.membership.snapshot()
        stats["nodes"] = {
            node_id: {**state, "routed": routed.get(node_id, 0)}
            for node_id, state in membership.pop("nodes").items()
        }
        stats["membership"] = membership
        return stats

    async def _serve_ring(self, request: HttpRequest) -> Response:
        ring = self.membership.ring()
        view = {
            "virtual_nodes": ring.virtual_nodes,
            "alive_nodes": list(ring.nodes),
            "all_nodes": sorted(self._clients),
        }
        return 200, json_body(view), None


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
    return serve_forever(
        ClusterCoordinator(config),
        "repro-coordinator",
        lambda: (
            f"peers={','.join(config.peers)} "
            f"virtual_nodes={config.virtual_nodes} "
            f"queue_limit={config.queue_limit}"
        ),
    )


class CoordinatorThread(ThreadedServer):
    """A :class:`ClusterCoordinator` on a background thread (tests, examples).

    ::

        with CoordinatorThread(CoordinatorConfig(port=0, peers=[...])) as (host, port):
            client = ClusterClient(host, port)
            ...
    """

    def __init__(self, config: CoordinatorConfig) -> None:
        super().__init__(ClusterCoordinator(config))
