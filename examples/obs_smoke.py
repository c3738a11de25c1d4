#!/usr/bin/env python3
"""Observability smoke: a journaled 2-node cluster, traced end to end.

Launches — fully in-process, on ephemeral localhost ports — a 2-node
cluster with the event journal enabled on every process (exactly what
``repro-decompose cluster node --journal DIR`` / ``cluster coordinator
--journal DIR`` run across machines), then:

1. decomposes a repeated-cell layout with a caller-supplied trace id and
   checks the masks are byte-identical to a direct ``Decomposer`` run,
2. fetches the assembled ``GET /trace/<id>`` span tree and checks the
   top-level stage durations fit inside the measured wall time,
3. reads the coordinator's journal and checks it holds the request's
   events from ``received`` to ``merged``,
4. lints the Prometheus ``/metrics`` payload of the coordinator and of a
   node,
5. replays every journal directory and verifies the lifecycle invariants.

Run with:  python examples/obs_smoke.py [JOURNAL_ROOT]

When JOURNAL_ROOT is given the journals are left on disk so a follow-up
``python -m repro.obs.replay --journal JOURNAL_ROOT/coordinator --check``
can re-verify them out of process (CI does exactly that).
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.bench.factory import repeated_cell_layout
from repro.cluster import ClusterClient, CoordinatorConfig, CoordinatorThread
from repro.core.decomposer import Decomposer
from repro.obs.journal import read_journal
from repro.obs.replay import check_events
from repro.service import ServerConfig, ServerThread, ServiceClient
from repro.service.metrics import lint_metrics_text
from repro.service.protocol import build_options, canonical_json, result_to_payload

TRACE_ID = "0b5e17ab1e57ace5"


def main(journal_root: Path) -> None:
    layout = repeated_cell_layout(copies=6)
    direct = Decomposer(build_options(4, "linear")).decompose(
        layout, layer=layout.layers()[0]
    )
    expected = canonical_json(
        result_to_payload("cells", layout.layers()[0], direct)
    )

    nodes = [
        ServerThread(
            ServerConfig(
                port=0,
                workers=1,
                force_inline_pool=True,
                journal_dir=str(journal_root / f"node{i}"),
            )
        )
        for i in range(2)
    ]
    coordinator = None
    try:
        peers = ["%s:%d" % node.start() for node in nodes]
        coordinator = CoordinatorThread(
            CoordinatorConfig(
                port=0,
                peers=peers,
                probe_interval=60.0,
                journal_dir=str(journal_root / "coordinator"),
            )
        )
        address = coordinator.start()
        client = ClusterClient(*address)
        client.wait_until_healthy()
        print(f"cluster up: coordinator {address[0]}:{address[1]}, "
              f"nodes {', '.join(peers)}")

        # 1. traced request, byte-identical to direct.
        served = client.decompose(
            layout, name="cells", algorithm="linear", trace_id=TRACE_ID
        )
        assert canonical_json(served) == expected, "cluster diverged from direct"
        assert client.last_trace_id == TRACE_ID
        print(f"served byte-identical to direct under trace {TRACE_ID}")

        # 2. the assembled span tree.
        trace = client.trace(TRACE_ID)
        assert trace["status"] == "completed", trace["status"]
        top = {span["stage"]: span["seconds"] for span in trace["spans"]}
        total = sum(top.values())
        assert 0.0 < total <= trace["wall_seconds"], (total, trace["wall_seconds"])
        print(
            "trace tree: "
            + ", ".join(f"{stage} {seconds:.6f}s" for stage, seconds in top.items())
            + f"; wall {trace['wall_seconds']:.6f}s"
        )

        # 3. the request's lifecycle, in order, in the coordinator's journal.
        journaled = [
            event["event"]
            for event in read_journal(str(journal_root / "coordinator"))
            if event.get("trace_id") == TRACE_ID
        ]
        assert journaled[0] == "received" and journaled[-1] == "merged", journaled
        print(f"journaled: {journaled}")

        # 4. lint-clean metrics on both roles.
        for label, metrics_client in (
            ("coordinator", client),
            ("node", ServiceClient(*nodes[0].address)),
        ):
            text = metrics_client.metrics_text()
            problems = lint_metrics_text(text)
            assert problems == [], (label, problems)
            assert "repro_stage_duration_seconds" in text
            assert "repro_build_info" in text
            assert "repro_process_uptime_seconds" in text
        print("metrics lint clean on coordinator and node")
    finally:
        if coordinator is not None:
            coordinator.stop()
        for node in nodes:
            node.stop()

    # 5. replay every journal with the invariant checker.
    for directory in sorted(journal_root.iterdir()):
        events = read_journal(str(directory))
        problems = check_events(events)
        assert problems == [], (directory, problems)
        print(f"replay OK: {directory.name} ({len(events)} events)")
    print("observability smoke passed")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        root = Path(sys.argv[1])
        root.mkdir(parents=True, exist_ok=True)
        main(root)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-obs-smoke-") as tmp:
            main(Path(tmp))
