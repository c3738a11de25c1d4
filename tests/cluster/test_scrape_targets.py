"""Every process is its own scrape target.

The coordinator aggregates no other process's metrics: a scraper reads the
coordinator's and each node's ``/metrics`` directly.  These tests check
what such a scraper sees on a live mini-cluster — every payload lint-clean
with its own process telemetry, node counters that sum to the
coordinator's fan-out, a dead node counted on the coordinator's own
``/metrics`` — and that an idle coordinator sends its nodes nothing.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.factory import random_layout, repeated_cell_layout
from repro.service.metrics import parse_metrics_text

from cluster_harness import mini_cluster

pytestmark = [pytest.mark.cluster, pytest.mark.obs]


def _scrape(cluster, client):
    """Parsed ``/metrics`` of the coordinator and of each node, in order."""
    coordinator = parse_metrics_text(client.metrics_text())
    nodes = [
        parse_metrics_text(cluster.node_client(index).metrics_text())
        for index in range(len(cluster.nodes))
    ]
    return coordinator, nodes


class TestScrapeTargets:
    def test_each_process_exposes_lint_clean_metrics_with_its_own_telemetry(self):
        with mini_cluster(num_nodes=2) as cluster:
            client = cluster.client()
            client.decompose(random_layout(), name="random", algorithm="linear")
            coordinator, nodes = _scrape(cluster, client)
        roles = [(coordinator, "coordinator")] + [(node, "server") for node in nodes]
        for parsed, role in roles:
            assert parsed.problems == []
            (info,) = parsed.families["repro_build_info"].samples
            assert info.labels["role"] == role
            uptime = parsed.value("repro_process_uptime_seconds")
            assert uptime is not None and uptime >= 0
            stages = parsed.families["repro_stage_duration_seconds"]
            assert stages.type == "histogram"

    def test_node_counters_sum_to_the_coordinators_fan_out(self):
        layout = random_layout()
        with mini_cluster(num_nodes=2) as cluster:
            client = cluster.client()
            for name in ("first", "repeat"):
                client.decompose(layout, name=name, algorithm="linear")
            coordinator, nodes = _scrape(cluster, client)
            node_ids = list(cluster.node_ids)

        def fleet(name):
            return sum(node.value(name) for node in nodes)

        for node_id, node in zip(node_ids, nodes):
            assert node.value("repro_server_components_total") == coordinator.value(
                "repro_coordinator_components_routed_total", {"node": node_id}
            )
        assert fleet("repro_server_component_batches_total") == coordinator.value(
            "repro_coordinator_node_requests_total"
        )
        hits = coordinator.value("repro_coordinator_component_cache_hits_total")
        assert fleet("repro_server_component_cache_hits_total") == hits
        assert hits > 0  # the repeat is answered from the owners' caches
        served = {"result": "served"}
        assert coordinator.value("repro_coordinator_requests_total", served) == 2

    def test_dead_node_is_counted_on_the_coordinators_own_metrics(self):
        layout = repeated_cell_layout(copies=4)
        with mini_cluster(num_nodes=2) as cluster:
            client = cluster.client()
            client.decompose(layout, name="cells", algorithm="linear")
            loaded = [n for n, s in client.stats()["nodes"].items() if s["routed"] > 0]
            victim = cluster.kill_node(cluster.node_ids.index(loaded[0]))
            before = parse_metrics_text(client.metrics_text())
            client.decompose(layout, name="cells", algorithm="linear")
            after = parse_metrics_text(client.metrics_text())
            state = client.stats()["nodes"][victim]

        assert before.value("repro_coordinator_nodes", {"state": "dead"}) == 0
        assert after.problems == []
        assert after.value("repro_coordinator_nodes", {"state": "dead"}) == 1
        assert after.value("repro_coordinator_nodes", {"state": "alive"}) == 1
        assert after.value("repro_coordinator_rebalances_total") == (
            before.value("repro_coordinator_rebalances_total") + 1
        )
        assert after.value("repro_coordinator_reroutes_total") > before.value(
            "repro_coordinator_reroutes_total"
        )
        assert state["alive"] is False
        assert state["last_error"]

    def test_an_idle_coordinator_sends_its_nodes_nothing(self):
        """With heartbeat probes off (the harness default), reading the
        coordinator's own endpoints reaches no node, and no background
        loop does either: the one request a node has received is the
        ``/stats`` read that reports it."""
        with mini_cluster(num_nodes=2) as cluster:
            client = cluster.client()
            client.healthz()
            client.stats()
            client.metrics_text()
            time.sleep(0.3)
            for index in range(2):
                stats = cluster.node_client(index).stats()
                assert stats["server"]["received"] == 1
