"""Lifecycle tests for the decomposition server.

Covers the ISSUE's required sequence: start → ``/healthz`` ok → a served
decompose whose masks byte-match a direct :class:`Decomposer` run →
queue-full 503 → graceful drain of in-flight work (both via
:meth:`DecompositionServer.shutdown` and via SIGTERM on a real subprocess).

The in-process tests run the pool in inline (thread) mode so the
``pre_dispatch_hook`` test seam can hold a request in flight
deterministically; a separate smoke test exercises real worker processes.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.bench.factory import repeated_cell_layout, wire_row_layout
from repro.core.decomposer import Decomposer
from repro.service import (
    ServerConfig,
    ServerThread,
    ServiceClient,
    ServiceError,
)
from repro.service.protocol import build_options, canonical_json, result_to_payload

pytestmark = pytest.mark.service


@pytest.fixture
def layout():
    return wire_row_layout(num_wires=3, wire_length=400)


def _direct_payload(layout, name, algorithm="linear", colors=4):
    layer = layout.layers()[0]
    result = Decomposer(build_options(colors, algorithm)).decompose(layout, layer=layer)
    return result_to_payload(name, layer, result)


class TestServeAndMatch:
    def test_lifecycle_smoke(self, layout):
        """start → healthz ok → served masks byte-match direct → stats → stop."""
        config = ServerConfig(port=0, workers=1, force_inline_pool=True)
        with ServerThread(config) as (host, port):
            client = ServiceClient(host, port)
            health = client.wait_until_healthy()
            assert health["status"] == "ok"
            assert health["mode"] == "inline"

            served = client.decompose(layout, name="wires", algorithm="linear")
            assert canonical_json(served) == canonical_json(
                _direct_payload(layout, "wires")
            )

            stats = client.stats()
            assert stats["server"]["served"] == 1
            assert stats["server"]["rejected"] == 0
            assert stats["pool"]["completed"] == 1

    def test_process_pool_smoke(self, layout):
        """The same byte-match through real worker processes."""
        config = ServerConfig(port=0, workers=2)
        with ServerThread(config) as (host, port):
            client = ServiceClient(host, port)
            client.wait_until_healthy()
            served = client.decompose(layout, name="wires", algorithm="linear")
            assert canonical_json(served) == canonical_json(
                _direct_payload(layout, "wires")
            )

    def test_batch_endpoint(self, layout):
        cells = repeated_cell_layout(copies=2)
        config = ServerConfig(port=0, workers=1, force_inline_pool=True)
        with ServerThread(config) as (host, port):
            client = ServiceClient(host, port)
            client.wait_until_healthy()
            response = client.decompose_batch(
                [("wires", layout), ("cells", cells)], algorithm="linear"
            )
            assert response["aggregate"]["layouts"] == 2
            for item, (name, item_layout) in zip(
                response["items"], [("wires", layout), ("cells", cells)]
            ):
                assert canonical_json(item) == canonical_json(
                    _direct_payload(item_layout, name)
                )

    def test_error_statuses(self, layout):
        config = ServerConfig(port=0, workers=1, force_inline_pool=True)
        with ServerThread(config) as (host, port):
            client = ServiceClient(host, port)
            client.wait_until_healthy()
            with pytest.raises(ServiceError) as not_found:
                client._request("GET", "/no-such-endpoint")
            assert not_found.value.status == 404
            with pytest.raises(ServiceError) as bad_method:
                client._request("GET", "/decompose")
            assert bad_method.value.status == 405
            with pytest.raises(ServiceError) as bad_request:
                client._request("POST", "/decompose", {"neither": "source"})
            assert bad_request.value.status == 400


class TestStartupFailure:
    def test_unusable_cache_db_fails_startup(self, tmp_path):
        """A broken worker config must abort startup, not serve 500s."""
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("file where a directory is needed")
        config = ServerConfig(
            port=0,
            workers=1,
            cache_db=str(blocker / "cells.db"),
            force_inline_pool=True,
        )
        server_thread = ServerThread(config)
        with pytest.raises(RuntimeError, match="failed to start"):
            server_thread.start()


class TestBackpressureAndDrain:
    def test_queue_full_returns_503_with_retry_after(self, layout):
        """With one slot occupied by a stalled request, the next gets 503."""
        gate = threading.Event()
        config = ServerConfig(
            port=0, workers=1, queue_limit=1, retry_after_seconds=7,
            force_inline_pool=True,
        )
        server_thread = ServerThread(config, pre_dispatch_hook=gate.wait)
        try:
            host, port = server_thread.start()
            client = ServiceClient(host, port)
            client.wait_until_healthy()

            first_result = {}
            def first_request():
                first_result["response"] = client.decompose(layout, algorithm="linear")
            background = threading.Thread(target=first_request)
            background.start()
            deadline = time.monotonic() + 10
            while client.healthz()["inflight"] == 0:  # admitted yet?
                assert time.monotonic() < deadline, "first request never admitted"
                time.sleep(0.02)

            with pytest.raises(ServiceError) as rejected:
                client.decompose(layout, algorithm="linear")
            assert rejected.value.status == 503
            assert rejected.value.retry_after == 7.0

            gate.set()
            background.join(30)
            assert first_result["response"]["num_colors"] == 4
            stats = client.stats()
            assert stats["server"]["rejected"] == 1
            assert stats["server"]["served"] == 1
        finally:
            gate.set()
            server_thread.stop()

    def test_oversized_batch_is_400_not_503(self, layout):
        """A batch that can never fit must not be reported as transient."""
        config = ServerConfig(
            port=0, workers=1, queue_limit=2, force_inline_pool=True
        )
        with ServerThread(config) as (host, port):
            client = ServiceClient(host, port)
            client.wait_until_healthy()
            with pytest.raises(ServiceError) as oversized:
                client.decompose_batch(
                    [(f"copy{i}", layout) for i in range(3)], algorithm="linear"
                )
            assert oversized.value.status == 400
            assert oversized.value.retry_after is None
            # The server is still healthy and serving.
            served = client.decompose(layout, algorithm="linear")
            assert served["num_colors"] == 4

    def test_drain_waits_for_inflight_work(self, layout):
        """shutdown() (the SIGTERM path) completes the admitted request."""
        gate = threading.Event()
        config = ServerConfig(port=0, workers=1, force_inline_pool=True)
        server_thread = ServerThread(config, pre_dispatch_hook=gate.wait)
        try:
            host, port = server_thread.start()
            client = ServiceClient(host, port)
            client.wait_until_healthy()

            result = {}
            def stalled_request():
                result["response"] = client.decompose(layout, algorithm="linear")
            background = threading.Thread(target=stalled_request)
            background.start()
            deadline = time.monotonic() + 10
            while client.healthz()["inflight"] == 0:
                assert time.monotonic() < deadline, "request never admitted"
                time.sleep(0.02)

            drained = threading.Event()
            stopper = threading.Thread(
                target=lambda: (server_thread.stop(), drained.set())
            )
            stopper.start()
            time.sleep(0.3)
            assert not drained.is_set(), "drain finished while work was in flight"

            gate.set()
            stopper.join(60)
            background.join(30)
            assert drained.is_set()
            # The in-flight request was answered, not dropped.
            assert canonical_json(result["response"]) == canonical_json(
                _direct_payload(layout, result["response"]["name"])
            )
        finally:
            gate.set()
            server_thread.stop()


class TestSigterm:
    def test_sigterm_drains_and_exits_cleanly(self):
        """A real ``python -m repro.service`` process drains on SIGTERM."""
        src_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(src_root), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service",
                "--port", "0", "--workers", "1", "--inline-pool",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            first_line = process.stdout.readline()
            address = re.search(r"http://([\d.]+):(\d+)", first_line)
            assert address, f"no address in startup line: {first_line!r}"
            client = ServiceClient(address.group(1), int(address.group(2)))
            assert client.wait_until_healthy()["status"] == "ok"

            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert "drained" in output


def _spawn_server(*args, env_overrides=None):
    """Start ``python -m repro.service --port 0`` with this checkout's sources."""
    src_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src_root), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    env.update(env_overrides or {})
    return subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )


class TestKernelBackendReport:
    """The server reports the solve backend its workers run, not the mode."""

    def test_box_without_core_reports_reference(self, tmp_path):
        empty_cache = tmp_path / "kernels"
        empty_cache.mkdir()
        process = _spawn_server(
            "--workers", "1",
            env_overrides={
                "REPRO_SOLVE_KERNELS": "auto",
                "REPRO_KERNELS_BUILD": "0",
                "REPRO_KERNELS_CACHE": str(empty_cache),
            },
        )
        try:
            first_line = process.stdout.readline()
            address = re.search(r"http://([\d.]+):(\d+)", first_line)
            assert address, f"no address in startup line: {first_line!r}"
            client = ServiceClient(address.group(1), int(address.group(2)))
            client.wait_until_healthy()
            assert client.stats()["pool"]["kernels"] == "reference"
            assert 'solve_kernels="reference"' in client.metrics_text()
            process.send_signal(signal.SIGTERM)
            process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert list(empty_cache.iterdir()) == []  # nothing was built

    def test_compiled_mode_without_core_fails_startup(self, tmp_path):
        process = _spawn_server(
            "--workers", "1", "--inline-pool",
            env_overrides={
                "REPRO_SOLVE_KERNELS": "compiled",
                "REPRO_KERNELS_BUILD": "0",
                "REPRO_KERNELS_CACHE": str(tmp_path),
            },
        )
        try:
            output, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode != 0
        assert "compiled solve core is unavailable" in output
        assert "listening" not in output

    @pytest.mark.parametrize("mode", ["off", "auto"])
    def test_worker_probe_names_backend(self, mode):
        from repro.core.kernels import active_core, set_kernel_mode
        from repro.service.pool import _worker_probe

        previous = set_kernel_mode(mode)
        try:
            expected = "compiled" if active_core() is not None else "reference"
            assert _worker_probe() == expected
        finally:
            set_kernel_mode(previous)
        if mode == "off":
            assert expected == "reference"

    def test_in_process_server_reports_active_backend(self):
        from repro.core.kernels import active_core

        expected = "compiled" if active_core() is not None else "reference"
        with ServerThread(ServerConfig(port=0, workers=1, force_inline_pool=True)) as (
            host,
            port,
        ):
            client = ServiceClient(host, port)
            client.wait_until_healthy()
            assert client.stats()["pool"]["kernels"] == expected
            assert f'solve_kernels="{expected}"' in client.metrics_text()

