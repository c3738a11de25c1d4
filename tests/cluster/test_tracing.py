"""End-to-end trace propagation through the cluster.

One trace id, minted (or supplied) at the coordinator, must survive every
hop — the binary components frame's trace field to a node, and coordinator
failover — so the coordinator's and the nodes' journals stitch into one
story.
"""

from __future__ import annotations

import socket

import pytest

from repro.bench.factory import repeated_cell_layout, wire_row_layout
from repro.cluster import ClusterClient
from repro.obs.journal import read_journal
from repro.obs.replay import check_events
from repro.service.metrics import parse_metrics_text

from cluster_harness import mini_cluster

pytestmark = [pytest.mark.cluster, pytest.mark.obs]

TRACE = "feedface00112233"


def _journaled_cluster(tmp_path):
    """One journaled node + one journaled coordinator (distinct dirs)."""
    return mini_cluster(
        num_nodes=1,
        node_config={"journal_dir": str(tmp_path / "node")},
        coordinator_config={"journal_dir": str(tmp_path / "coordinator")},
    )


class TestPropagation:
    def test_one_trace_id_spans_coordinator_and_node(self, tmp_path):
        with _journaled_cluster(tmp_path) as cluster:
            client = cluster.client()
            client.decompose(
                repeated_cell_layout(copies=4),
                name="cells",
                algorithm="linear",
                trace_id=TRACE,
            )
            assert client.last_trace_id == TRACE

            trace = client.trace(TRACE)
            assert trace["status"] == "completed"
            stages = {span["stage"] for span in trace["spans"]}
            assert "execute" in stages

            def child_stages(spans):
                for span in spans:
                    yield span["stage"]
                    yield from child_stages(span["children"])

            all_stages = set(child_stages(trace["spans"]))
            assert {"build", "divide", "route", "node_rpc", "merge"} <= all_stages

        coordinator_events = read_journal(str(tmp_path / "coordinator"))
        node_events = read_journal(str(tmp_path / "node"))
        assert check_events(coordinator_events) == []
        assert check_events(node_events) == []
        # The node journaled the same trace the coordinator minted: the id
        # crossed the wire inside the binary frame's trace field.
        assert node_events, "node journal is empty - trace id never arrived"
        assert {e["trace_id"] for e in node_events} == {TRACE}
        assert {e["trace_id"] for e in coordinator_events} == {TRACE}
        names = [e["event"] for e in node_events]
        assert names[0] == "received" and names[-1] == "completed"

    def test_progress_events_are_cumulative_across_batch(self, tmp_path):
        """One /batch request = one trace; progress must never reset
        between the batch's layouts (the replay invariant)."""
        with _journaled_cluster(tmp_path) as cluster:
            client = cluster.client()
            response = client.decompose_batch(
                [
                    ("cells", repeated_cell_layout(copies=3)),
                    ("wires", wire_row_layout(num_wires=3, wire_length=400)),
                ],
                algorithm="linear",
            )
            assert response["aggregate"]["layouts"] == 2
        events = read_journal(str(tmp_path / "coordinator"))
        assert check_events(events) == []
        progress = [e for e in events if e["event"] == "progress"]
        assert len(progress) >= 2  # both layouts reported under one trace
        assert len({e["trace_id"] for e in progress}) == 1


class TestFailover:
    def test_trace_id_rides_coordinator_failover(self, tmp_path):
        """A request that fails over to the fallback coordinator keeps its
        supplied trace id, so the surviving coordinator's journal owns the
        whole story."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_address = probe.getsockname()
        with _journaled_cluster(tmp_path) as cluster:
            client = ClusterClient(*dead_address, fallbacks=[cluster.address])
            client.wait_until_healthy()
            client.decompose(
                repeated_cell_layout(copies=4),
                name="cells",
                algorithm="linear",
                trace_id=TRACE,
            )
            assert client.last_trace_id == TRACE
            assert client.trace(TRACE)["status"] == "completed"
        events = read_journal(str(tmp_path / "coordinator"))
        assert events and {e["trace_id"] for e in events} == {TRACE}
        assert check_events(events) == []


class TestEncodeStage:
    def test_coordinator_times_encode(self, tmp_path):
        """Serialising the response is on the request's critical path: the
        coordinator's trace and stage histogram both show it."""
        with _journaled_cluster(tmp_path) as cluster:
            client = cluster.client()
            client.decompose(
                repeated_cell_layout(copies=2),
                name="cells",
                algorithm="linear",
                trace_id=TRACE,
            )
            trace = client.trace(TRACE)
            assert "encode" in {span["stage"] for span in trace["spans"]}
            metrics = parse_metrics_text(client.metrics_text())
        assert metrics.problems == []
        encode = {"stage": "encode"}
        assert metrics.value("repro_stage_duration_seconds_count", encode) == 1
