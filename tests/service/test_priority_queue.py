"""The worker pool's priority-aware admission queue.

Smallest-estimated-cost-first dispatch (an interactive single layout
overtakes a large batch's tail), the age-based anti-starvation bump, the
per-class queue-depth telemetry, and the ``POST /components`` micro-batch
occupying a single admission slot.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro.service.pool as pool_module
from repro.bench.factory import repeated_cell_layout
from repro.graph.components import connected_components
from repro.graph.construction import build_decomposition_graph
from repro.runtime.wire_binary import encode_components_frame
from repro.service import ServerConfig, ServerThread, ServiceClient, ServiceError
from repro.service.pool import PoolConfig, WorkerPool, estimate_job_cost

pytestmark = pytest.mark.service


def _component_job(name: str, vertices: int, **extra) -> dict:
    return {"kind": "component", "name": name, "num_vertices": vertices, **extra}


class TestCostEstimate:
    def test_component_cost_is_vertex_count(self):
        assert estimate_job_cost(_component_job("c", 7)) == 7

    def test_layout_cost_is_shape_count(self):
        layout = repeated_cell_layout(copies=3)
        job = {"layout": layout.to_dict()}
        assert estimate_job_cost(job) == len(layout)

    def test_malformed_jobs_cost_one(self):
        assert estimate_job_cost({}) == 1
        assert estimate_job_cost({"kind": "component"}) == 1
        assert estimate_job_cost({"kind": "component", "num_vertices": 0}) == 1
        assert estimate_job_cost({"layout": "junk"}) == 1


class _RecordingPool:
    """A 1-worker inline pool whose worker function the test controls."""

    def __init__(self, monkeypatch, starvation_age_seconds: float):
        self.order = []
        self.gate = threading.Event()
        self.blocker_started = threading.Event()

        def fake_worker(job):
            if job.get("block"):
                self.blocker_started.set()
                assert self.gate.wait(timeout=30), "gate never released"
            self.order.append(job["name"])
            return {"name": job["name"]}

        monkeypatch.setattr(pool_module, "_worker_run", fake_worker)
        self.pool = WorkerPool(
            PoolConfig(
                workers=1,
                force_inline=True,
                starvation_age_seconds=starvation_age_seconds,
            )
        )
        self.pool.start()

    def occupy_worker(self):
        future = self.pool.submit(_component_job("blocker", 1, block=True))
        assert self.blocker_started.wait(timeout=30), "blocker never dispatched"
        return future


class TestPriorityOrder:
    def test_small_job_overtakes_large_batch_job(self, monkeypatch):
        harness = _RecordingPool(monkeypatch, starvation_age_seconds=60.0)
        try:
            blocker = harness.occupy_worker()
            big = harness.pool.submit(_component_job("big", 50), klass="batch")
            small = harness.pool.submit(
                _component_job("small", 2), klass="interactive"
            )
            assert harness.pool.stats()["queue_depth"] == {
                "interactive": 1,
                "batch": 1,
            }
            harness.gate.set()
            for future in (blocker, big, small):
                future.result(timeout=30)
            assert harness.order == ["blocker", "small", "big"]
            assert harness.pool.stats()["priority_bumps"] == 0
        finally:
            harness.gate.set()
            harness.pool.shutdown()

    def test_age_bump_prevents_starvation(self, monkeypatch):
        # starvation_age=0 means the oldest queued job always wins: the big
        # job submitted first runs before the cheaper later one, and the
        # override is counted as a priority bump.
        harness = _RecordingPool(monkeypatch, starvation_age_seconds=0.0)
        try:
            blocker = harness.occupy_worker()
            big = harness.pool.submit(_component_job("big", 50), klass="batch")
            small = harness.pool.submit(
                _component_job("small", 2), klass="interactive"
            )
            harness.gate.set()
            for future in (blocker, big, small):
                future.result(timeout=30)
            assert harness.order == ["blocker", "big", "small"]
            assert harness.pool.stats()["priority_bumps"] >= 1
        finally:
            harness.gate.set()
            harness.pool.shutdown()

    def test_queue_depth_drains_to_zero(self, monkeypatch):
        harness = _RecordingPool(monkeypatch, starvation_age_seconds=60.0)
        try:
            blocker = harness.occupy_worker()
            futures = [
                harness.pool.submit(_component_job(f"j{i}", i + 2), klass="batch")
                for i in range(3)
            ]
            assert harness.pool.stats()["queue_depth"]["batch"] == 3
            harness.gate.set()
            for future in [blocker, *futures]:
                future.result(timeout=30)
            stats = harness.pool.stats()
            assert stats["queue_depth"] == {"interactive": 0, "batch": 0}
            assert stats["completed"] == 4
        finally:
            harness.gate.set()
            harness.pool.shutdown()

    def test_already_finished_job_does_not_deadlock_submit(self, monkeypatch):
        """A job that completes before its done-callback is attached runs
        the callback synchronously on the submitting thread; that path must
        not re-enter the pool lock (regression: dispatch used to attach the
        callback while holding it, deadlocking submit)."""
        from concurrent.futures import Future

        monkeypatch.setattr(
            pool_module, "_worker_run", lambda job: {"name": job["name"]}
        )

        class InstantExecutor:
            """submit() returns an already-completed future."""

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        pool = WorkerPool(PoolConfig(workers=1, force_inline=True))
        pool.start()
        pool._executor.shutdown(wait=False)
        pool._executor = InstantExecutor()

        done = []
        worker = threading.Thread(
            target=lambda: done.extend(
                pool.submit(_component_job(f"j{i}", 2)).result(timeout=10)["name"]
                for i in range(5)
            ),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "pool.submit deadlocked on a fast job"
        assert done == [f"j{i}" for i in range(5)]
        assert pool.stats()["completed"] == 5
        pool.shutdown()

    def test_shutdown_wait_drains_queued_jobs(self, monkeypatch):
        harness = _RecordingPool(monkeypatch, starvation_age_seconds=60.0)
        queued = None
        try:
            harness.occupy_worker()
            queued = harness.pool.submit(_component_job("queued", 3))
            release = threading.Timer(0.2, harness.gate.set)
            release.start()
            harness.pool.shutdown(wait=True)
            assert queued.result(timeout=1)["name"] == "queued"
        finally:
            harness.gate.set()


def _component_flats(layout, algorithm="linear"):
    from repro.service.protocol import build_options

    layer = layout.layers()[0]
    options = build_options(4, algorithm)
    construction = build_decomposition_graph(
        layout, layer=layer, options=options.construction
    )
    graph = construction.graph
    return [
        graph.subgraph(component).to_arrays()
        for component in connected_components(graph)
    ]


def _frame(flats, colors=4, algorithm="linear"):
    return encode_components_frame(
        [(None, flat) for flat in flats], colors, algorithm
    )


def _smash_entry(body: bytes, flats, position: int) -> bytes:
    """Corrupt the flat-frame version byte of entry ``position``.

    Entries follow the envelope as ``<key len=0><u32 length><frame>``, so
    the envelope stays intact and only that component's graph is bad.
    """
    offset = len(_frame([])) + sum(1 + 4 + flat.frame_size() for flat in flats[:position])
    corrupted = bytearray(body)
    assert corrupted[offset + 1 + 4] == 1  # flat frame version
    corrupted[offset + 1 + 4] = 99
    return bytes(corrupted)


class TestComponentsEndpoint:
    def test_batch_matches_single_component_batches(self):
        layout = repeated_cell_layout(copies=3)
        flats = _component_flats(layout)
        assert len(flats) >= 2
        config = ServerConfig(port=0, workers=1, force_inline_pool=True)
        with ServerThread(config) as (host, port):
            client = ServiceClient(host, port)
            client.wait_until_healthy()
            singles = [
                client.components_binary(_frame([flat]))["results"][0]
                for flat in flats
            ]
            batched = client.components_binary(_frame(flats))
            results = batched["results"]
            assert len(results) == len(flats)
            for single, entry in zip(singles, results):
                assert entry["key"] == single["key"]
                assert entry["coloring"] == single["coloring"]
                # The single pass already cached every component.
                assert entry["cache_hit"] is True
            stats = client.stats()["server"]
            assert stats["component_batches"] == len(flats) + 1
            assert stats["batched_components"] == 2 * len(flats)

    def test_batch_occupies_one_admission_slot(self):
        # queue_limit=1 would 503 a five-job batch if each component counted
        # against admission; a micro-batch is one round trip -> one slot.
        layout = repeated_cell_layout(copies=5)
        flats = _component_flats(layout)
        assert len(flats) >= 5
        config = ServerConfig(
            port=0, workers=1, force_inline_pool=True, queue_limit=1
        )
        with ServerThread(config) as (host, port):
            client = ServiceClient(host, port)
            client.wait_until_healthy()
            response = client.components_binary(_frame(flats))
            assert len(response["results"]) == len(flats)
            assert all("key" in entry for entry in response["results"])

    def test_one_bad_component_fails_only_itself(self):
        layout = repeated_cell_layout(copies=2)
        good = _component_flats(layout)
        flats = [good[0], good[0], *good[1:]]
        body = _smash_entry(_frame(flats), flats, 1)
        config = ServerConfig(port=0, workers=1, force_inline_pool=True)
        with ServerThread(config) as (host, port):
            client = ServiceClient(host, port)
            client.wait_until_healthy()
            response = client.components_binary(body)
            results = response["results"]
            assert len(results) == len(flats)
            assert "error" in results[1]
            assert results[1]["error"]["status"] == 400
            others = [entry for i, entry in enumerate(results) if i != 1]
            assert all("key" in entry for entry in others)
            stats = client.stats()["server"]
            assert stats["components"] == len(flats) - 1
            assert stats["batched_components"] == len(flats)

    def test_metrics_expose_queue_and_batch_counters(self):
        layout = repeated_cell_layout(copies=2)
        flats = _component_flats(layout)
        config = ServerConfig(port=0, workers=1, force_inline_pool=True)
        with ServerThread(config) as (host, port):
            client = ServiceClient(host, port)
            client.wait_until_healthy()
            client.components_binary(_frame(flats))
            text = client.metrics_text()
            assert "# TYPE repro_pool_queue_depth gauge" in text
            assert 'repro_pool_queue_depth{class="batch"} 0' in text
            assert 'repro_pool_queue_depth{class="interactive"} 0' in text
            assert "# TYPE repro_pool_priority_bumps_total counter" in text
            assert "repro_server_component_batches_total 1" in text
            assert f"repro_server_batched_components_total {len(flats)}" in text


class TestEnvelopeErrors:
    def test_malformed_envelope_is_400(self):
        flats = _component_flats(repeated_cell_layout(copies=1))
        config = ServerConfig(port=0, workers=1, force_inline_pool=True)
        with ServerThread(config) as (host, port):
            client = ServiceClient(host, port)
            client.wait_until_healthy()
            with pytest.raises(ServiceError) as empty:
                client.components_binary(_frame([]))
            assert empty.value.status == 400
            with pytest.raises(ServiceError) as bad_algorithm:
                client.components_binary(_frame(flats, algorithm="no-such-algorithm"))
            assert bad_algorithm.value.status == 400
