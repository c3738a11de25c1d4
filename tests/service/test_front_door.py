"""The surface both front ends show a client, pinned byte for byte.

The decomposition server and the cluster coordinator share one request
path, one route fallthrough and one ``/stats`` counter block.  These tests
pin what a client or a scraper sees of that: the Prometheus exposition of a
fixed ``/stats`` snapshot per role, the ``/healthz`` and ``/stats`` key sets
of a running daemon, and the 404/405 bodies of the route table — so a
refactor of the shared code cannot move a byte of it.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.cluster import CoordinatorConfig, CoordinatorThread, coordinator_metrics_text
from repro.service import ServerConfig, ServerThread
from repro.service.metrics import lint_metrics_text, server_metrics_text

pytestmark = pytest.mark.service

#: Every counter non-zero and a SQLite cache block.
SERVER_STATS = {
    "server": {
        "received": 41,
        "served": 37,
        "rejected": 2,
        "failed": 1,
        "timeouts": 3,
        "invalid": 5,
        "components": 11,
        "component_cache_hits": 7,
        "component_batches": 4,
        "batched_components": 13,
        "inflight": 6,
        "queue_limit": 32,
        "uptime_seconds": 12.5,
    },
    "pool": {
        "mode": "process",
        "kernels": "compiled",
        "workers": 2,
        "active": 1,
        "queue_depth": 11,
        "submitted": 29,
        "completed": 23,
        "failed": 2,
    },
    "cache": {
        "backend": "sqlite",
        "path": "cells.db",
        "hits": 17,
        "misses": 19,
        "stores": 14,
        "evictions": 1,
        "entries": 21,
        "session": {"hits": 5, "misses": 6, "stores": 4, "evictions": 1},
    },
}

SERVER_EXPOSITION = """\
# HELP repro_server_requests_total HTTP requests by terminal result.
# TYPE repro_server_requests_total counter
repro_server_requests_total{result="received"} 41
repro_server_requests_total{result="served"} 37
repro_server_requests_total{result="rejected"} 2
repro_server_requests_total{result="failed"} 1
repro_server_requests_total{result="timeouts"} 3
repro_server_requests_total{result="invalid"} 5
# HELP repro_server_components_total Components solved via POST /components micro-batches.
# TYPE repro_server_components_total counter
repro_server_components_total 11
# HELP repro_server_component_cache_hits_total Component requests answered from the component cache (cache-affinity hits when routed by a cluster coordinator).
# TYPE repro_server_component_cache_hits_total counter
repro_server_component_cache_hits_total 7
# HELP repro_server_component_batches_total Component micro-batch requests served via POST /components.
# TYPE repro_server_component_batches_total counter
repro_server_component_batches_total 4
# HELP repro_server_batched_components_total Components received inside POST /components micro-batches (divide by repro_server_component_batches_total for the mean batch size).
# TYPE repro_server_batched_components_total counter
repro_server_batched_components_total 13
# HELP repro_server_inflight_jobs Jobs admitted and not yet finished (queue depth).
# TYPE repro_server_inflight_jobs gauge
repro_server_inflight_jobs 6
# HELP repro_server_queue_limit Admission-control bound on queued + in-flight jobs.
# TYPE repro_server_queue_limit gauge
repro_server_queue_limit 32
# HELP repro_server_uptime_seconds Seconds since the server started.
# TYPE repro_server_uptime_seconds gauge
repro_server_uptime_seconds 12.5
# HELP repro_pool_jobs_total Worker-pool jobs by state.
# TYPE repro_pool_jobs_total counter
repro_pool_jobs_total{state="submitted"} 29
repro_pool_jobs_total{state="completed"} 23
repro_pool_jobs_total{state="failed"} 2
# HELP repro_pool_workers Size of the worker pool.
# TYPE repro_pool_workers gauge
repro_pool_workers{mode="process"} 2
# HELP repro_pool_queue_depth Jobs admitted but not yet dispatched to a worker.
# TYPE repro_pool_queue_depth gauge
repro_pool_queue_depth 11
# HELP repro_pool_active_jobs Jobs currently executing on a worker.
# TYPE repro_pool_active_jobs gauge
repro_pool_active_jobs 1
# HELP repro_cache_operations_total Persistent component-cache operations (cumulative across restarts).
# TYPE repro_cache_operations_total counter
repro_cache_operations_total{operation="hits"} 17
repro_cache_operations_total{operation="misses"} 19
repro_cache_operations_total{operation="stores"} 14
repro_cache_operations_total{operation="evictions"} 1
# HELP repro_cache_entries Components currently stored in the persistent cache.
# TYPE repro_cache_entries gauge
repro_cache_entries 21
"""

#: Every counter non-zero, two nodes (one dead), given out of key order.
COORDINATOR_STATS = {
    "coordinator": {
        "received": 52,
        "served": 44,
        "rejected": 3,
        "failed": 2,
        "timeouts": 1,
        "invalid": 6,
        "components_routed": 31,
        "component_cache_hits": 12,
        "reroutes": 4,
        "node_requests": 17,
        "inflight": 5,
        "queue_limit": 16,
        "uptime_seconds": 7.25,
    },
    "nodes": {
        "127.0.0.1:9002": {"alive": False, "routed": 9},
        "127.0.0.1:9001": {"alive": True, "routed": 22},
    },
    "membership": {"alive": 1, "total": 2, "rebalances": 3},
}

COORDINATOR_EXPOSITION = """\
# HELP repro_coordinator_requests_total HTTP requests by terminal result.
# TYPE repro_coordinator_requests_total counter
repro_coordinator_requests_total{result="received"} 52
repro_coordinator_requests_total{result="served"} 44
repro_coordinator_requests_total{result="rejected"} 3
repro_coordinator_requests_total{result="failed"} 2
repro_coordinator_requests_total{result="timeouts"} 1
repro_coordinator_requests_total{result="invalid"} 6
# HELP repro_coordinator_components_routed_total Components routed to each node by consistent-hash ownership.
# TYPE repro_coordinator_components_routed_total counter
repro_coordinator_components_routed_total{node="127.0.0.1:9001"} 22
repro_coordinator_components_routed_total{node="127.0.0.1:9002"} 9
# HELP repro_coordinator_component_cache_hits_total Routed components the owner node answered from its cache (cache-affinity hit count).
# TYPE repro_coordinator_component_cache_hits_total counter
repro_coordinator_component_cache_hits_total 12
# HELP repro_coordinator_reroutes_total Components re-routed after a node connection failure (failed attempts land only here; completed solves land only in repro_coordinator_components_routed_total — never both).
# TYPE repro_coordinator_reroutes_total counter
repro_coordinator_reroutes_total 4
# HELP repro_coordinator_node_requests_total HTTP requests sent to nodes (micro-batched: one per owning node per layout when batches fit the caps).
# TYPE repro_coordinator_node_requests_total counter
repro_coordinator_node_requests_total 17
# HELP repro_coordinator_rebalances_total Consistent-hash ring rebuilds caused by liveness transitions.
# TYPE repro_coordinator_rebalances_total counter
repro_coordinator_rebalances_total 3
# HELP repro_coordinator_nodes Cluster nodes by liveness.
# TYPE repro_coordinator_nodes gauge
repro_coordinator_nodes{state="alive"} 1
repro_coordinator_nodes{state="dead"} 1
# HELP repro_coordinator_inflight_jobs Layout jobs admitted and not yet finished (queue depth).
# TYPE repro_coordinator_inflight_jobs gauge
repro_coordinator_inflight_jobs 5
# HELP repro_coordinator_queue_limit Admission-control bound on queued + in-flight layout jobs.
# TYPE repro_coordinator_queue_limit gauge
repro_coordinator_queue_limit 16
# HELP repro_coordinator_uptime_seconds Seconds since the coordinator started.
# TYPE repro_coordinator_uptime_seconds gauge
repro_coordinator_uptime_seconds 7.25
"""

#: Counter keys of the shared ``/stats`` block, then each role's own.
REQUEST_COUNTERS = {"received", "served", "rejected", "failed", "timeouts", "invalid"}
ADMISSION_KEYS = {"inflight", "queue_limit", "uptime_seconds"}

#: (method, path) of every route each role serves.
SHARED_ROUTES = [
    ("GET", "/healthz"),
    ("GET", "/stats"),
    ("GET", "/metrics"),
    ("POST", "/decompose"),
    ("POST", "/batch"),
]
SERVER_ROUTES = SHARED_ROUTES + [("POST", "/components")]
COORDINATOR_ROUTES = SHARED_ROUTES + [("GET", "/ring")]


def _raw(address, method, path, body=None):
    """One request on a fresh connection: (status, body bytes)."""
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _get_json(address, path):
    status, body = _raw(address, "GET", path)
    assert status == 200, body
    return json.loads(body)


def _wrong_method(method):
    return "GET" if method == "POST" else "POST"


def _assert_route_table(address, routes, foreign):
    """405 for a wrong method on every route, 404 off the table."""
    for method, path in routes:
        wrong = _wrong_method(method)
        body = b"{}" if wrong == "POST" else None
        assert _raw(address, wrong, path, body) == (
            405,
            b'{"error": {"message": "%s not allowed on %s", "status": 405}}'
            % (wrong.encode(), path.encode()),
        ), (wrong, path)
    for path in ["/no-such-endpoint", "/trace", *foreign]:
        assert _raw(address, "GET", path) == (
            404,
            b'{"error": {"message": "no such endpoint \'%s\'", "status": 404}}'
            % path.encode(),
        ), path
    # The query string never takes part in routing.
    assert _raw(address, "POST", "/healthz?verbose=1", b"{}")[0] == 405
    assert _raw(address, "GET", "/no-such-endpoint?x=1") == (
        404,
        b'{"error": {"message": "no such endpoint \'/no-such-endpoint\'", '
        b'"status": 404}}',
    )


class TestExposition:
    def test_server_exposition_is_pinned(self):
        text = server_metrics_text(SERVER_STATS)
        assert text == SERVER_EXPOSITION
        assert lint_metrics_text(text) == []

    @pytest.mark.cluster
    def test_coordinator_exposition_is_pinned(self):
        text = coordinator_metrics_text(COORDINATOR_STATS)
        assert text == COORDINATOR_EXPOSITION
        assert lint_metrics_text(text) == []


@pytest.fixture
def server_address(tmp_path):
    config = ServerConfig(
        port=0,
        workers=1,
        force_inline_pool=True,
        cache_db=str(tmp_path / "cells.db"),
    )
    with ServerThread(config) as address:
        yield address


@pytest.fixture
def coordinator_address(server_address):
    node = "%s:%d" % server_address
    config = CoordinatorConfig(
        port=0, peers=[node, "127.0.0.1:1"], probe_interval=60.0
    )
    with CoordinatorThread(config) as address:
        yield address, node


class TestServerSurface:
    def test_healthz_keys(self, server_address):
        assert set(_get_json(server_address, "/healthz")) == {
            "status",
            "inflight",
            "uptime_seconds",
            "mode",
            "components_frame",
            "workers",
        }

    def test_stats_keys(self, server_address):
        stats = _get_json(server_address, "/stats")
        assert set(stats) == {"server", "pool", "cache"}
        assert set(stats["server"]) == REQUEST_COUNTERS | ADMISSION_KEYS | {
            "components",
            "component_cache_hits",
            "component_batches",
            "batched_components",
        }
        assert set(stats["server"]) == set(SERVER_STATS["server"])
        assert set(stats["pool"]) == {
            "mode",
            "kernels",
            "workers",
            "active",
            "queue_depth",
            "submitted",
            "completed",
            "failed",
        }
        assert stats["pool"]["queue_depth"] == 0
        assert set(stats["cache"]) == {
            "backend",
            "path",
            "hits",
            "misses",
            "stores",
            "evictions",
            "entries",
            "session",
        }
        assert set(stats["cache"]["session"]) == {
            "hits",
            "misses",
            "stores",
            "evictions",
        }

    def test_route_table(self, server_address):
        foreign = ["/ring", "/cluster/metrics", "/slo", "/watch"]
        _assert_route_table(server_address, SERVER_ROUTES, foreign)


@pytest.mark.cluster
class TestCoordinatorSurface:
    def test_healthz_keys(self, coordinator_address):
        address, _ = coordinator_address
        health = _get_json(address, "/healthz")
        assert set(health) == {"status", "inflight", "uptime_seconds", "role", "nodes"}
        assert health["role"] == "coordinator"
        assert set(health["nodes"]) == {"alive", "total"}

    def test_stats_keys(self, coordinator_address):
        address, node = coordinator_address
        stats = _get_json(address, "/stats")
        assert set(stats) == {"coordinator", "nodes", "membership"}
        assert set(stats["coordinator"]) == REQUEST_COUNTERS | ADMISSION_KEYS | {
            "components_routed",
            "component_cache_hits",
            "reroutes",
            "node_requests",
        }
        assert set(stats["coordinator"]) == set(COORDINATOR_STATS["coordinator"])
        assert set(stats["membership"]) == {
            "alive",
            "total",
            "rebalances",
            "failure_threshold",
            "virtual_nodes",
        }
        assert set(stats["nodes"]) == {node, "127.0.0.1:1"}
        for state in stats["nodes"].values():
            assert set(state) == {
                "alive",
                "consecutive_failures",
                "last_error",
                "probes",
                "routed",
            }

    def test_route_table(self, coordinator_address):
        address, _ = coordinator_address
        foreign = ["/components", "/cluster/metrics", "/slo", "/watch"]
        _assert_route_table(address, COORDINATOR_ROUTES, foreign)
