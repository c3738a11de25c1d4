"""Failure paths: backpressure propagation, total node loss, rebalance rules."""

from __future__ import annotations

import threading

import pytest

from repro.bench.factory import wire_row_layout
from repro.cluster import (
    ClusterClient,
    CoordinatorConfig,
    CoordinatorThread,
    Membership,
    NoNodesAvailable,
)
from repro.service import ServerConfig, ServerThread, ServiceClient, ServiceError

from cluster_harness import mini_cluster

pytestmark = pytest.mark.cluster


class TestQueueFullPropagation:
    def test_node_503_propagates_with_retry_after(self):
        """A node at capacity answers 503; the coordinator must surface that
        503 — with a Retry-After header — instead of swallowing it or
        mis-classifying the node as dead."""
        gate = threading.Event()
        release = threading.Event()

        def hold_request():
            gate.set()
            release.wait(timeout=30)

        node = ServerThread(
            ServerConfig(port=0, workers=1, force_inline_pool=True, queue_limit=1),
            pre_dispatch_hook=hold_request,
        )
        layout = wire_row_layout(num_wires=3, wire_length=400)
        try:
            host, port = node.start()
            node_client = ServiceClient(host, port)
            node_client.wait_until_healthy()
            occupier = threading.Thread(
                target=lambda: node_client.decompose(
                    layout, name="hold", algorithm="linear"
                ),
                daemon=True,
            )
            occupier.start()
            assert gate.wait(timeout=10), "occupying request never reached the node"

            coordinator = CoordinatorThread(
                CoordinatorConfig(
                    port=0, peers=[f"{host}:{port}"], probe_interval=60.0
                )
            )
            try:
                cluster_client = ClusterClient(*coordinator.start())
                cluster_client.wait_until_healthy()
                with pytest.raises(ServiceError) as excinfo:
                    cluster_client.decompose(layout, name="w", algorithm="linear")
                assert excinfo.value.status == 503
                assert excinfo.value.retry_after is not None
                stats = cluster_client.stats()
                # Busy is not dead: the node must still be in the ring.
                assert stats["nodes"][f"{host}:{port}"]["alive"] is True
                assert stats["coordinator"]["rejected"] == 1
            finally:
                release.set()
                occupier.join(timeout=30)
                coordinator.stop()
        finally:
            release.set()
            node.stop()

    def test_coordinator_own_queue_full_503(self):
        """The coordinator's own admission control: a batch larger than its
        queue limit is a 400 (would never fit), not an infinite-retry 503."""
        with mini_cluster(
            num_nodes=1, coordinator_config={"queue_limit": 2}
        ) as cluster:
            client = cluster.client()
            layout = wire_row_layout(num_wires=2, wire_length=200)
            with pytest.raises(ServiceError) as excinfo:
                client.decompose_batch(
                    [(f"w{i}", layout) for i in range(3)], algorithm="linear"
                )
            assert excinfo.value.status == 400


class TestTotalNodeLoss:
    def test_all_nodes_dead_is_503_with_retry_after(self):
        with mini_cluster(num_nodes=1) as cluster:
            client = cluster.client()
            layout = wire_row_layout(num_wires=3, wire_length=400)
            expected_alive = client.stats()["membership"]["alive"]
            assert expected_alive == 1
            cluster.kill_node(0)
            with pytest.raises(ServiceError) as excinfo:
                client.decompose(layout, name="w", algorithm="linear")
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after is not None
            stats = client.stats()
            assert stats["membership"]["alive"] == 0
            # /healthz keeps answering while the cluster has no capacity.
            assert client.healthz()["nodes"]["alive"] == 0


class TestRerouteLimit:
    @pytest.mark.parametrize("num_nodes", [1, 2])
    def test_component_gives_up_after_one_try_per_peer(self, monkeypatch, num_nodes):
        """A component whose batches keep losing their connection while the
        node stays in the ring re-routes once per configured peer, then
        answers 502."""
        from repro.cluster.coordinator import _NodeConnectionLost

        with mini_cluster(num_nodes=num_nodes) as cluster:
            client = cluster.client()
            sends = {}

            def lose_connection(node_id, chunk, *args, **kwargs):
                for key in chunk:
                    sends[key] = sends.get(key, 0) + 1
                raise _NodeConnectionLost(node_id)

            monkeypatch.setattr(
                cluster.coordinator.server, "_send_batch", lose_connection
            )
            with pytest.raises(ServiceError) as excinfo:
                client.decompose(
                    wire_row_layout(num_wires=3, wire_length=400),
                    name="w",
                    algorithm="linear",
                )
            assert excinfo.value.status == 502
            assert f"re-routed {num_nodes + 1} times" in str(excinfo.value)
            assert sends and set(sends.values()) == {num_nodes + 1}
            assert client.stats()["membership"]["alive"] == num_nodes


class TestRebalanceDeterminism:
    def test_mark_dead_ring_equals_fresh_ring_over_survivors(self):
        from repro.cluster import HashRing

        peers = ["10.0.0.1:8001", "10.0.0.2:8001", "10.0.0.3:8001"]
        membership = Membership(peers, probe_interval=60.0)
        assert membership.mark_dead("10.0.0.2:8001", "test") is True
        survivors_ring = HashRing(["10.0.0.1:8001", "10.0.0.3:8001"])
        assert membership.ring().nodes == survivors_ring.nodes
        keys = [f"key-{i}" for i in range(300)]
        assert [membership.ring().owner(k) for k in keys] == [
            survivors_ring.owner(k) for k in keys
        ]

    def test_mark_dead_is_idempotent_and_owner_raises_when_empty(self):
        membership = Membership(["10.0.0.1:8001"], probe_interval=60.0)
        assert membership.mark_dead("10.0.0.1:8001") is True
        assert membership.mark_dead("10.0.0.1:8001") is False
        with pytest.raises(NoNodesAvailable):
            membership.owner("any-key")

    def test_heartbeat_failure_threshold(self):
        """One failed probe keeps the node; hitting the threshold kills it."""
        membership = Membership(
            ["127.0.0.1:1"], probe_interval=60.0, failure_threshold=2,
            probe_timeout=0.2,
        )
        membership.probe_once()  # port 1: connection refused
        assert membership.node("127.0.0.1:1").alive is True
        membership.probe_once()
        assert membership.node("127.0.0.1:1").alive is False
