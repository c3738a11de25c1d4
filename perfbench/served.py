"""The served workload, ``serve-mixed``, and the traced cluster pass.

Every server is a subprocess started from the command line with
``--workers 1`` and a fresh SQLite cache file; the load generator is this
process, one closed-loop client on one keep-alive connection, so exactly
one request is in flight and its round trip is service time.  The server
is started ``SETUP_STARTS`` times and ``setup_s`` is the median
spawn-to-healthy time; the last one serves the timed region.  Times are
reported at nominal machine pace: the client runs the reference loop of
``perfbench.pace`` after each start and between requests, outside the
round trips and the wall time it measures.

A traced run also sends the same request list through a coordinator in
front of one node, to measure the coordinator and node layers.  The cluster
is not an end-to-end workload: over ten seeds its p90 spread 0.30, beyond
any bound the benchmark may set.  It has one node on purpose: ring
placement hashes ``host:port``, so with ephemeral ports a two-node ring
would split the components differently on every run.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from perfbench.common import Outcome, child_env, describe, end_to_end
from perfbench.inputs import ServedInputs, served_inputs
from perfbench.layers import (
    LayerTracer,
    Scrape,
    complete,
    counter_delta,
    scrape,
    stage_delta_ms,
)
from perfbench.pace import Pace
from perfbench.procs import Children, peak_rss_mb

SETUP_STARTS = 3
HOST = "127.0.0.1"


# ------------------------------------------------------------ deployments
def _wait_healthy(port: int, timeout: float = 60.0) -> None:
    """Poll ``/healthz`` until it is ok (and, on a coordinator, its node alive)."""
    deadline = time.monotonic() + timeout
    while True:
        connection = http.client.HTTPConnection(HOST, port, timeout=10)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            health = json.loads(response.read())
            nodes = health.get("nodes", {"alive": 1, "total": 1})
            if response.status == 200 and health.get("status") == "ok" \
                    and nodes["alive"] == nodes["total"]:
                return
        except (OSError, http.client.HTTPException, ValueError):
            pass
        finally:
            connection.close()
        if time.monotonic() > deadline:
            raise RuntimeError(f"{HOST}:{port} not healthy after {timeout}s")
        time.sleep(0.01)


def start(kind: str, children: Children, rundir: Path, index: int):
    """Start a ``server`` or a ``cluster``; return its ports and processes.

    The ports map ``front`` (where requests go) and, for a cluster,
    ``node`` to port numbers.  Processes are listed in start order.
    """
    env = child_env(rundir)
    python = sys.executable
    cache_db = str(rundir / f"cache-{kind}-{index}.db")
    if kind == "server":
        argv = [python, "-m", "repro.service", "--host", HOST, "--port", "0",
                "--workers", "1", "--cache-db", cache_db]
        proc, port = children.spawn_server(argv, env)
        _wait_healthy(port)
        return {"front": port}, [proc]
    node_argv = [python, "-m", "repro.cli", "cluster", "node", "--host", HOST,
                 "--port", "0", "--workers", "1", "--cache-db", cache_db]
    node, node_port = children.spawn_server(node_argv, env)
    coordinator_argv = [python, "-m", "repro.cli", "cluster", "coordinator",
                        "--host", HOST, "--port", "0", "--peers", f"{HOST}:{node_port}"]
    coordinator, port = children.spawn_server(coordinator_argv, env)
    _wait_healthy(port)
    return {"front": port, "node": node_port}, [node, coordinator]


@dataclass
class Drive:
    """One deployment serving the whole request list once."""

    setup: List[float]
    latencies: List[float]
    replies: List[Tuple[int, bytes]]
    wall: float
    rss_mb: float
    scrapes: Dict[str, Tuple[Scrape, Scrape]] = field(default_factory=dict)


def drive(
    kind: str, inputs: ServedInputs, children: Children, rundir: Path,
    starts: int, scraped: bool, pace: Pace, setup_pace: Pace,
) -> Drive:
    """Start ``kind`` ``starts`` times, send the list to the last, stop it.

    ``setup_pace`` is sampled after each start, ``pace`` during the load.
    """
    setup = []
    for index in range(starts):
        began = time.perf_counter()
        ports, processes = start(kind, children, rundir, index)
        setup.append(time.perf_counter() - began)
        setup_pace.sample()
        if index < starts - 1:
            for proc in reversed(processes):
                children.stop(proc)
    before = {role: scrape(HOST, port) for role, port in ports.items()} if scraped else {}
    latencies, replies, wall = send_all(ports["front"], inputs, pace)
    rss_mb = peak_rss_mb([proc.pid for proc in processes])
    after = {role: scrape(HOST, port) for role, port in ports.items()} if scraped else {}
    for proc in reversed(processes):
        children.stop(proc)
    scrapes = {role: (before[role], after[role]) for role in before}
    return Drive(setup, latencies, replies, wall, rss_mb, scrapes)


# ---------------------------------------------------------------- checking
def direct_payloads(inputs: ServedInputs, outcome: Outcome) -> Tuple[Dict, Dict[str, int]]:
    """Canonical response of a direct ``Decomposer`` run per distinct body.

    Also checks each direct result and returns conflicts and stitches
    summed over the distinct layouts.
    """
    from repro.core.decomposer import Decomposer
    from repro.core.evaluation import check_complete, count_conflicts, count_stitches
    from repro.geometry.layout import Layout
    from repro.service import protocol

    expected: Dict[Tuple[int, bool], str] = {}
    per_layout: Dict[int, Tuple[int, int]] = {}
    for request in inputs.requests:
        key = (request.layout_id, request.gds)
        if key in expected:
            continue
        job = protocol.parse_decompose_request(json.loads(request.body))
        options = protocol.build_options(
            colors=job["colors"], algorithm=job["algorithm"], min_spacing=job["min_spacing"]
        )
        result = Decomposer(options).decompose(Layout.from_dict(job["layout"]), layer=job["layer"])
        graph, solution = result.construction.graph, result.solution
        check_complete(graph, solution.coloring, options.num_colors)
        recomputed = (count_conflicts(graph, solution.coloring), count_stitches(graph, solution.coloring))
        if recomputed != (solution.conflicts, solution.stitches):
            outcome.fail(f"layout {key}: direct run miscounts {recomputed}")
        per_layout.setdefault(request.layout_id, recomputed)
        expected[key] = protocol.canonical_json(
            protocol.result_to_payload(job["name"], job["layer"], result)
        )
    quality = {
        "conflicts": sum(c for c, _ in per_layout.values()),
        "stitches": sum(s for _, s in per_layout.values()),
    }
    return expected, quality


# ------------------------------------------------------------- load loop
def send_all(port: int, inputs: ServedInputs, pace: Pace):
    """Send every request in order, one in flight, on one connection.

    The pace is sampled between requests; the wall time returned leaves
    those samples out.
    """
    headers = {"Content-Type": "application/json", "Connection": "keep-alive"}
    connection = http.client.HTTPConnection(HOST, port, timeout=600)
    latencies: List[float] = []
    replies: List[Tuple[int, bytes]] = []
    pacing = 0.0
    start = time.perf_counter()
    try:
        for request in inputs.requests:
            began = time.perf_counter()
            try:
                connection.request("POST", "/decompose", body=request.body, headers=headers)
                response = connection.getresponse()
                replies.append((response.status, response.read()))
            except (OSError, http.client.HTTPException) as exc:
                connection.close()
                connection = http.client.HTTPConnection(HOST, port, timeout=600)
                replies.append((0, str(exc).encode()))
            latencies.append(time.perf_counter() - began)
            pacing += pace.after(latencies[-1])
        wall = time.perf_counter() - start - pacing
    finally:
        connection.close()
    return latencies, replies, wall


def check_replies(inputs: ServedInputs, replies, expected, outcome: Outcome) -> List[Dict]:
    from repro.service.protocol import canonical_json

    payloads = []
    for index, (request, (status, raw)) in enumerate(zip(inputs.requests, replies)):
        if status != 200:
            outcome.fail(f"request {index}: status {status}: {raw[:200]!r}")
            continue
        payload = json.loads(raw)
        payloads.append(payload)
        if canonical_json(payload) != expected[(request.layout_id, request.gds)]:
            outcome.fail(f"request {index}: response differs from a direct Decomposer run")
    return payloads


# ------------------------------------------------------------------ layers
def replay(inputs: ServedInputs, traced: bool):
    """Parse and run every request in-process, as a worker would.

    Returns (wall seconds, parse seconds of GDS requests, tracer or None).
    """
    from repro.core.decomposer import Decomposer
    from repro.runtime.cache import open_cache
    from repro.service import protocol

    cache = open_cache()
    gds_parse: List[float] = []
    start = time.perf_counter()
    with LayerTracer() if traced else contextlib.nullcontext() as tracer:
        for request in inputs.requests:
            began = time.perf_counter()
            job = protocol.parse_decompose_request(json.loads(request.body))
            if request.gds:
                gds_parse.append(time.perf_counter() - began)
            protocol.run_job(job, lambda options: Decomposer(options, cache=cache))
    return time.perf_counter() - start, gds_parse, tracer


def server_layers(inputs: ServedInputs, served: Drive, payloads) -> Dict[str, float]:
    """Server stages, queue wait and cache counters, per request."""
    n = len(inputs.requests)
    before, after = served.scrapes["front"]
    parse = stage_delta_ms(before, after, "parse") / n
    execute = stage_delta_ms(before, after, "execute") / n
    encode = stage_delta_ms(before, after, "encode") / n
    compute = 1000.0 * sum(p.get("seconds", 0.0) for p in payloads) / n
    queue = "repro_pool_queue_wait_seconds"
    hits = counter_delta(before.stats, after.stats, "cache", "session", "hits")
    misses = counter_delta(before.stats, after.stats, "cache", "session", "misses")
    stores = counter_delta(before.stats, after.stats, "cache", "session", "stores")
    return {
        "server.parse_ms": parse,
        "server.encode_ms": encode,
        "server.compute_ms": compute,
        "server.dispatch_ms": execute - compute,
        "server.http_ms": 1000.0 * sum(served.latencies) / n - parse - execute - encode,
        "server.queue_wait_ms": 1000.0 * (after.histogram_sum(queue) - before.histogram_sum(queue)) / n,
        "server.bytes_in": sum(len(r.body) for r in inputs.requests) / n,
        "server.bytes_out": sum(len(raw) for _, raw in served.replies) / n,
        "cache.lookups": (hits + misses) / n,
        "cache.hits": hits / n,
        "cache.stores": stores / n,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def cluster_layers(inputs: ServedInputs, cluster: Drive) -> Dict[str, float]:
    """Coordinator stages and counters and node work, per request."""
    n = len(inputs.requests)
    before, after = cluster.scrapes["front"]
    node_before, node_after = cluster.scrapes["node"]
    out = {
        f"coordinator.{stage}_ms": stage_delta_ms(before, after, stage) / n
        for stage in ("build", "divide", "hash", "route", "merge")
    }
    for name in ("node_requests", "components_routed"):
        out[f"coordinator.{name}"] = counter_delta(before.stats, after.stats, "coordinator", name) / n
    out["coordinator.downgrades"] = sum(
        counter_delta(before.stats, after.stats, "coordinator", name)
        for name in ("wire_downgrades", "frame_downgrades")
    )
    queue = "repro_pool_queue_wait_seconds"
    out["node.solve_ms"] = stage_delta_ms(node_before, node_after, "solve") / n
    out["node.queue_wait_ms"] = 1000.0 * (
        node_after.histogram_sum(queue) - node_before.histogram_sum(queue)
    ) / n
    out["node.shm_jobs"] = counter_delta(node_before.stats, node_after.stats, "pool", "shm_jobs") / n
    return out


# -------------------------------------------------------------------- run
def run(seed: int, seconds: float, trace: bool, rundir: Path) -> Outcome:
    outcome = Outcome()
    # A traced run sends its list twice and replays it twice in-process, so
    # its list is a quarter as long and the run takes about as long.
    inputs = served_inputs(seed, seconds / 4 if trace else seconds)
    expected, quality = direct_payloads(inputs, outcome)
    outcome.details["quality"] = quality
    outcome.details["requests"] = len(inputs.requests)

    pace, setup_pace = Pace(), Pace()
    with Children(rundir) as children:
        served = drive("server", inputs, children, rundir, 1 if trace else SETUP_STARTS, trace,
                       pace, setup_pace)
        cluster = drive("cluster", inputs, children, rundir, 1, True, pace, setup_pace) \
            if trace else None

    payloads = check_replies(inputs, served.replies, expected, outcome)
    outcome.attempted = len(served.replies)
    outcome.details.update(wall_s=served.wall, pace=pace.details())
    if not trace:
        outcome.details["setup_pace"] = setup_pace.details()
        outcome.metrics = end_to_end(
            outcome, len(payloads) / served.wall, served.latencies, quality,
            served.setup, served.rss_mb, pace, setup_pace,
        )
        return outcome

    check_replies(inputs, cluster.replies, expected, outcome)
    outcome.attempted += len(cluster.replies)
    outcome.details["cluster"] = {"latency": describe(cluster.latencies), "wall_s": cluster.wall}
    partial = server_layers(inputs, served, payloads)
    partial.update(cluster_layers(inputs, cluster))
    untraced_wall, _, _ = replay(inputs, traced=False)
    traced_wall, gds_parse, tracer = replay(inputs, traced=True)
    partial.update(tracer.metrics())
    partial["server.parse_gds_ms"] = 1000.0 * sum(gds_parse) / max(1, len(gds_parse))
    partial["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
    outcome.metrics = complete(partial, pace.scale)
    return outcome
