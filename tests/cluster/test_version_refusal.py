"""Nodes speak one components frame; a mismatched node is refused, not negotiated.

The coordinator's heartbeat compares each node's ``/healthz``
``components_frame`` with the version it encodes.  A node reporting another
version fails the probe: after ``failure_threshold`` probes it leaves the
ring, ``/stats`` names both versions in its ``last_error``, and the
coordinator's own ``/metrics`` counts it under
``repro_coordinator_nodes{state="dead"}``.
"""

from __future__ import annotations

import pytest

from repro.bench.factory import repeated_cell_layout, wire_row_layout
from repro.core.decomposer import Decomposer
from repro.runtime.wire_binary import FRAME_VERSION
from repro.service.client import ServiceError
from repro.service.metrics import parse_metrics_text
from repro.service.protocol import build_options, canonical_json, result_to_payload

from cluster_harness import mini_cluster

pytestmark = pytest.mark.cluster

OTHER_FRAME = FRAME_VERSION + 1


def _direct_payload(layout, name, algorithm="linear", colors=4):
    layer = layout.layers()[0]
    result = Decomposer(build_options(colors, algorithm)).decompose(layout, layer=layer)
    return result_to_payload(name, layer, result)


def _layouts():
    return [
        ("cells", repeated_cell_layout(copies=4)),
        ("wires", wire_row_layout(num_wires=4, wire_length=600)),
    ]


class TestFrameVersionRefusal:
    def test_mismatched_node_leaves_ring_with_both_versions_named(self):
        coordinator_config = {"failure_threshold": 2}
        with mini_cluster(num_nodes=1, coordinator_config=coordinator_config) as cluster:
            client = cluster.client()
            node_id = cluster.node_ids[0]
            node = cluster.nodes[0].server
            honest_healthz = node._healthz
            node._healthz = lambda: {**honest_healthz(), "components_frame": OTHER_FRAME}
            membership = cluster.coordinator.server.membership

            membership.probe_once()
            assert membership.alive_count() == 1  # one failed probe is tolerated
            membership.probe_once()
            assert membership.alive_count() == 0

            state = client.stats()["nodes"][node_id]
            assert state["alive"] is False
            assert f"components frame {OTHER_FRAME}" in state["last_error"]
            assert f"speaks {FRAME_VERSION}" in state["last_error"]
            metrics = parse_metrics_text(client.metrics_text())
            assert metrics.value("repro_coordinator_nodes", {"state": "dead"}) == 1
            with pytest.raises(ServiceError) as refused:
                client.decompose(repeated_cell_layout(copies=2), algorithm="linear")
            assert refused.value.status == 503

            # Refusal is not sticky: the node rejoins once it speaks the frame.
            node._healthz = honest_healthz
            membership.probe_once()
            assert membership.alive_count() == 1
            assert client.stats()["nodes"][node_id]["last_error"] is None


class TestMixedCluster:
    def test_current_node_serves_every_layout_after_the_other_is_refused(self):
        """One current node + one reporting another frame behind one coordinator.

        The refused node gets no component traffic; the current node answers
        every layout byte-identically to a direct run.
        """
        coordinator_config = {"failure_threshold": 1}
        with mini_cluster(num_nodes=2, coordinator_config=coordinator_config) as cluster:
            client = cluster.client()
            current_id, refused_id = cluster.node_ids
            refused = cluster.nodes[1].server
            honest_healthz = refused._healthz
            refused._healthz = lambda: {**honest_healthz(), "components_frame": OTHER_FRAME}
            membership = cluster.coordinator.server.membership
            membership.probe_once()
            assert membership.alive_count() == 1

            for name, layout in _layouts():
                served = client.decompose(layout, name=name, algorithm="linear")
                assert canonical_json(served) == canonical_json(
                    _direct_payload(layout, name)
                )
            stats = client.stats()
            assert stats["coordinator"]["components_routed"] > 0
            assert stats["coordinator"]["failed"] == 0
            assert stats["nodes"][current_id]["alive"] is True
            assert stats["nodes"][refused_id]["alive"] is False
            assert cluster.node_client(1).stats()["server"]["component_batches"] == 0
            assert cluster.node_client(0).stats()["server"]["component_batches"] > 0


class TestUniformCluster:
    def test_probes_keep_every_current_node_in_the_ring(self):
        """Real ``/healthz`` answers from same-build nodes pass the check."""
        with mini_cluster(num_nodes=2) as cluster:
            client = cluster.client()
            membership = cluster.coordinator.server.membership
            for _ in range(3):
                membership.probe_once()
            assert membership.alive_count() == 2
            nodes = client.stats()["nodes"]
            for node_id in cluster.node_ids:
                assert nodes[node_id]["alive"] is True
                assert nodes[node_id]["last_error"] is None


class TestHealthVerdict:
    """The probe's verdict on one ``/healthz`` answer."""

    @pytest.mark.parametrize(
        "health, fragments",
        [
            ({"status": "ok", "components_frame": FRAME_VERSION}, None),
            (
                {"status": "draining", "components_frame": FRAME_VERSION},
                ["status='draining'"],
            ),
            ({"status": "ok"}, ["components frame None", f"speaks {FRAME_VERSION}"]),
            (
                {"status": "ok", "components_frame": 1},
                ["components frame 1", f"speaks {FRAME_VERSION}"],
            ),
            (
                {"status": "ok", "components_frame": OTHER_FRAME},
                [f"components frame {OTHER_FRAME}", f"speaks {FRAME_VERSION}"],
            ),
            ({"components_frame": FRAME_VERSION}, ["status=None"]),
            (
                {
                    "status": "ok",
                    "components_frame": FRAME_VERSION,
                    "mode": "inline",
                    "workers": 1,
                },
                None,
            ),
        ],
        ids=[
            "ready",
            "draining",
            "pre-refusal-build",
            "older-frame",
            "newer-frame",
            "no-status",
            "extra-fields-ignored",
        ],
    )
    def test_health_error(self, health, fragments):
        from repro.cluster.membership import _health_error

        error = _health_error(health)
        if fragments is None:
            assert error is None
        else:
            for fragment in fragments:
                assert fragment in error


class TestCoordinatorExposition:
    def test_coordinator_reports_no_solve_backend_and_no_negotiation(self):
        with mini_cluster(num_nodes=1) as cluster:
            client = cluster.client()
            text = client.metrics_text()
            stats = client.stats()["coordinator"]
        assert 'role="coordinator"' in text
        assert 'solve_kernels="none"' in text
        assert f'components_frame="{FRAME_VERSION}"' in text
        assert "downgrades" not in text
        assert not any("downgrades" in name for name in stats)
