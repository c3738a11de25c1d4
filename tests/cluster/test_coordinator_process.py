"""A real ``python -m repro.cluster`` coordinator process: start, answer, drain.

The in-process :class:`CoordinatorThread` harness skips the entry point a
deployment runs.  This test starts the coordinator as its own process in
front of one in-process node, reads the bound address from the first
stdout line, checks ``/healthz``, then sends SIGTERM and expects a clean
drain with exit status 0.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys

import pytest

from repro.service import ServerConfig, ServerThread, ServiceClient

pytestmark = pytest.mark.cluster


def test_coordinator_process_serves_and_drains_on_sigterm():
    src_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src_root), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    node_config = ServerConfig(port=0, workers=1, force_inline_pool=True)
    with ServerThread(node_config) as (node_host, node_port):
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cluster",
                "--port", "0",
                "--peers", f"{node_host}:{node_port}",
                "--probe-interval", "60",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            first_line = process.stdout.readline()
            address = re.match(
                r"repro-coordinator: listening on http://([\d.]+):(\d+)$",
                first_line.strip(),
            )
            assert address, f"unexpected startup line: {first_line!r}"
            client = ServiceClient(address.group(1), int(address.group(2)))
            health = client.wait_until_healthy()
            assert health["status"] == "ok"
            assert health["role"] == "coordinator"
            assert health["nodes"] == {"alive": 1, "total": 1}

            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
    assert process.returncode == 0, output
    assert "repro-coordinator: drained, exiting" in output
