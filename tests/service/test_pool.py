"""The worker pool's first-in, first-out admission queue.

Dispatch in arrival order with one queue-wait observation per dispatch,
the queue depth, what the pool keeps of its degraded modes (a dead worker
process, a broken executor, a failing job, cancellation on an abandoning
shutdown), concurrent submitters, and the ``POST /components`` micro-batch
occupying a single admission slot.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.service.pool as pool_module
from repro.bench.factory import repeated_cell_layout
from repro.graph.components import connected_components
from repro.graph.construction import build_decomposition_graph
from repro.runtime.wire_binary import encode_components_frame
from repro.service import ServerConfig, ServerThread, ServiceClient, ServiceError
from repro.service.pool import PoolConfig, WorkerPool
from repro.service.protocol import decode_decompose_request

pytestmark = pytest.mark.service


def _job(name: str, **extra) -> dict:
    return {"name": name, **extra}


class _RecordingPool:
    """A 1-worker inline pool whose worker function the test controls.

    A job with ``block`` waits for :attr:`gate`; one with ``fail`` raises.
    """

    def __init__(self, monkeypatch):
        self.order = []
        self.gate = threading.Event()
        self.blocker_started = threading.Event()

        def fake_worker(job):
            if job.get("block"):
                self.blocker_started.set()
                assert self.gate.wait(timeout=30), "gate never released"
            self.order.append(job["name"])
            if job.get("fail"):
                raise ValueError(f"{job['name']} failed")
            return {"name": job["name"]}

        monkeypatch.setattr(pool_module, "_worker_run", fake_worker)
        self.pool = WorkerPool(PoolConfig(workers=1, force_inline=True))
        self.pool.start()

    def occupy_worker(self, **extra):
        future = self.pool.submit(_job("blocker", block=True, **extra))
        assert self.blocker_started.wait(timeout=30), "blocker never dispatched"
        return future


class TestDispatch:
    def test_jobs_dispatch_in_arrival_order(self, monkeypatch):
        harness = _RecordingPool(monkeypatch)
        try:
            blocker = harness.occupy_worker()
            big = harness.pool.submit(_job("big"))
            small = harness.pool.submit(_job("small"))
            harness.gate.set()
            for future in (blocker, big, small):
                future.result(timeout=30)
            assert harness.order == ["blocker", "big", "small"]
            assert harness.pool.queue_wait.snapshot().total_count == 3
        finally:
            harness.gate.set()
            harness.pool.shutdown()

    def test_queue_depth_drains_to_zero(self, monkeypatch):
        harness = _RecordingPool(monkeypatch)
        try:
            blocker = harness.occupy_worker()
            futures = [harness.pool.submit(_job(f"j{i}")) for i in range(3)]
            assert harness.pool.stats()["queue_depth"] == 3
            harness.gate.set()
            for future in [blocker, *futures]:
                future.result(timeout=30)
            stats = harness.pool.stats()
            assert stats["queue_depth"] == 0
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
                pool.submit(_job(f"j{i}")).result(timeout=10)["name"]
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
        harness = _RecordingPool(monkeypatch)
        queued = None
        try:
            harness.occupy_worker()
            queued = harness.pool.submit(_job("queued"))
            release = threading.Timer(0.2, harness.gate.set)
            release.start()
            harness.pool.shutdown(wait=True)
            assert queued.result(timeout=1)["name"] == "queued"
        finally:
            harness.gate.set()

    def test_shutdown_without_wait_cancels_queued_jobs(self, monkeypatch):
        harness = _RecordingPool(monkeypatch)
        try:
            blocker = harness.occupy_worker()
            queued = harness.pool.submit(_job("queued"))
            harness.pool.shutdown(wait=False)
            assert queued.cancelled()
            with pytest.raises(RuntimeError, match="not running"):
                harness.pool.submit(_job("late"))
            harness.gate.set()
            assert blocker.result(timeout=30) == {"name": "blocker"}
            assert harness.order == ["blocker"]
        finally:
            harness.gate.set()

    def test_broken_executor_is_rebuilt_once(self, monkeypatch):
        monkeypatch.setattr(
            pool_module, "_worker_run", lambda job: {"name": job["name"]}
        )

        class BrokenExecutor:
            """submit() raises, as on a process pool whose worker died."""

            shut_down = False

            def submit(self, fn, *args):
                raise RuntimeError("executor is broken")

            def shutdown(self, wait=True, cancel_futures=False):
                self.shut_down = True

        pool = WorkerPool(PoolConfig(workers=1, force_inline=True))
        pool.start()
        pool._executor.shutdown(wait=False)
        broken = pool._executor = BrokenExecutor()
        builds = []
        build = pool._build_executor
        monkeypatch.setattr(
            pool, "_build_executor", lambda: builds.append(1) or build()
        )
        try:
            assert pool.submit(_job("rebuilt")).result(timeout=30) == {"name": "rebuilt"}
            assert broken.shut_down
            assert len(builds) == 1
            assert pool.mode == "inline"
            assert pool.stats()["completed"] == 1
        finally:
            pool.shutdown()

    def test_failing_job_frees_its_worker(self, monkeypatch):
        harness = _RecordingPool(monkeypatch)
        try:
            failing = harness.occupy_worker(fail=True)
            after = harness.pool.submit(_job("after"))
            harness.gate.set()
            with pytest.raises(ValueError, match="blocker failed"):
                failing.result(timeout=30)
            assert after.result(timeout=30) == {"name": "after"}
            stats = harness.pool.stats()
            assert (stats["failed"], stats["completed"], stats["active"]) == (1, 1, 0)
        finally:
            harness.gate.set()
            harness.pool.shutdown()

    def test_concurrent_submitters_never_exceed_the_workers(self, monkeypatch):
        """More workers than cores, more submitters than workers, and a
        short switch interval: a lost update in the pool's counters or its
        ``_active < workers`` gate breaks one of the invariants below."""
        workers, threads, per_thread = 3, 6, 20
        lock = threading.Lock()
        running = [0, 0]  # now, peak

        def fake_worker(job):
            with lock:
                running[0] += 1
                running[1] = max(running[1], running[0])
            time.sleep(0.001)
            with lock:
                running[0] -= 1
            return {"name": job["name"]}

        monkeypatch.setattr(pool_module, "_worker_run", fake_worker)
        pool = WorkerPool(PoolConfig(workers=workers, force_inline=True))
        pool.start()
        futures = {}
        active_seen = []

        def submit_many(thread):
            for index in range(per_thread):
                name = f"t{thread}-{index}"
                futures[name] = pool.submit(_job(name))
                active_seen.append(pool.stats()["active"])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            submitters = [
                threading.Thread(target=submit_many, args=(thread,))
                for thread in range(threads)
            ]
            for submitter in submitters:
                submitter.start()
            for submitter in submitters:
                submitter.join(timeout=30)
                assert not submitter.is_alive(), "a submitter hung"
            assert len(futures) == threads * per_thread
            for name, future in futures.items():
                assert future.result(timeout=30) == {"name": name}
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()
        assert running[1] <= workers
        assert max(active_seen) <= workers
        stats = pool.stats()
        assert stats["submitted"] == stats["completed"] == threads * per_thread
        assert stats["active"] == 0


class _ExitOnUnpickle:
    """Kills the worker process that unpickles it."""

    def __reduce__(self):
        return os._exit, (13,)


class TestProcessPoolRecovery:
    def test_dead_worker_fails_only_its_own_job(self):
        layout = repeated_cell_layout(copies=1)
        pool = WorkerPool(PoolConfig(workers=1))
        pool.start()
        try:
            assert pool.mode == "process"
            crash = pool.submit({"crash": _ExitOnUnpickle()})
            queued = [
                pool.submit(
                    decode_decompose_request(
                        {"layout": layout.to_dict(), "name": f"q{i}", "algorithm": "linear"}
                    )
                )
                for i in range(3)
            ]
            with pytest.raises(BrokenProcessPool):
                crash.result(timeout=60)
            names = [future.result(timeout=60)["name"] for future in queued]
            assert names == ["q0", "q1", "q2"]
            stats = pool.stats()
            assert pool.mode == "process"
            assert (stats["failed"], stats["completed"]) == (1, 3)
        finally:
            pool.shutdown()


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
            assert "\nrepro_pool_queue_depth 0\n" in text
            assert "repro_pool_priority_bumps_total" not in text
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
