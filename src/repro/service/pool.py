"""Persistent worker pool executing decomposition jobs for the server.

The pool is created once at server startup and lives until drain: workers
are long-lived processes, each holding its own :class:`Decomposer` wiring
and its own handle on the component cache.  With ``cache_db`` set, every
worker opens the same SQLite store (:mod:`repro.runtime.sqlite_cache`), so a
standard cell solved by one worker is a cache hit for every other worker,
for every later request, and for the next server instance pointed at the
same file.  Without it, each worker keeps a process-private in-memory LRU —
still effective for repeated cells within the worker's own request stream.

Admission is **priority-aware**: jobs wait in a smallest-estimated-cost-first
queue (cost ≈ vertices for a component job, shapes for a layout job) and are
handed to the executor only when a worker is free, so a small interactive
request overtakes the long tail of a large batch instead of queueing behind
it.  Pure cost order would let a steady stream of small jobs starve a big
one forever; an **age bump** prevents that — once the oldest queued job has
waited ``starvation_age_seconds``, it is dispatched next regardless of cost.
Queue depth per priority class (``interactive`` vs ``batch``) and the bump
count are exposed through :meth:`stats` (and from there ``/stats`` and
``/metrics``).

Environments that cannot fork (locked-down sandboxes) are detected at
startup by running a probe job through the pool; on failure the pool falls
back to long-lived *threads* in the server process, trading parallelism for
availability — the same correctness, since jobs never share mutable state.
The active mode is reported by ``/healthz`` and ``/stats``.  The same probe
loads the compiled solve core in a worker and reports which backend solves
actually run on (``compiled`` or ``reference``), so a box without a C
compiler is visible in ``/stats`` and ``repro_build_info`` instead of only
in its latency.

Jobs and results are plain JSON-level dicts (see
:mod:`repro.service.protocol`), which keeps the process boundary cheap and
version-skew-proof.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.decomposer import Decomposer
from repro.obs.hist import Histogram
from repro.runtime.cache import open_cache
from repro.runtime.scheduler import resolve_workers
from repro.service import protocol

#: The queue's priority classes, in display order.
PRIORITY_CLASSES = ("interactive", "batch")

#: Per-thread (and, in process mode, per-process) worker state.  A
#: ``threading.local`` covers both executors: a worker process runs its
#: initializer and all its jobs on one thread, a thread-pool worker is a
#: thread by definition.
_worker_state = threading.local()


def _worker_init(cache_db: Optional[str], cache_max_entries: Optional[int]) -> None:
    """Executor initializer: build this worker's cache handle exactly once."""
    _worker_state.cache = open_cache(db_path=cache_db, max_entries=cache_max_entries)


def _worker_run(job: Dict) -> Dict:
    """Execute one job dict inside a worker (process or thread).

    ``kind`` selects the work unit: whole-layout decomposition (the default,
    what ``POST /decompose``/``/batch`` enqueue) or a single divided
    component (each entry of ``POST /components``, the cluster's unit of
    work — solved against this worker's component cache so routed-by-hash
    repeats are affinity hits).
    """
    cache = getattr(_worker_state, "cache", None)
    if job.get("kind") == "component":
        from repro.runtime.component_io import solve_component_job

        return solve_component_job(job, cache)
    return protocol.run_job(job, lambda options: Decomposer(options, cache=cache))


def _worker_probe() -> str:
    """Startup canary: proves the pool runs code, names the kernel backend.

    Loads the compiled solve core inside the worker — raising in mode
    ``compiled`` when it is missing, so such a server fails at startup —
    and returns ``compiled`` or ``reference``: what this worker's solves
    actually run on.
    """
    from repro.core.kernels import active_core

    return "compiled" if active_core() is not None else "reference"


def estimate_job_cost(job: Dict) -> int:
    """Estimate one job's solve cost for the priority queue.

    Deliberately cheap and structural — vertices for a component, shapes for
    a layout — because the estimate only has to *order* jobs (small before
    large), not predict wall time.  Component jobs carry the vertex count
    as ``num_vertices`` (the frame decode already read it).
    """
    if job.get("kind") == "component":
        hint = job.get("num_vertices")
        return hint if isinstance(hint, int) and hint > 0 else 1
    layout = job.get("layout")
    shapes = layout.get("shapes") if isinstance(layout, dict) else None
    return max(1, len(shapes)) if isinstance(shapes, list) else 1


@dataclass
class PoolConfig:
    """Static pool configuration fixed at server startup."""

    #: ``0`` = one worker per CPU, otherwise the worker count (min 1).
    workers: int = 0
    #: Path of the shared SQLite component cache; ``None`` = per-worker LRU.
    cache_db: Optional[str] = None
    #: Entry bound applied to whichever cache backend is in use.
    cache_max_entries: Optional[int] = None
    #: Skip process workers and run on threads (used by tests that need to
    #: reach into in-flight jobs; also a sane choice under ``workers=1``).
    force_inline: bool = False
    #: Oldest-job wait beyond which the age bump overrides cost order.
    #: ``0`` degenerates to FIFO dispatch.
    starvation_age_seconds: float = 5.0


@dataclass
class _PendingJob:
    """One admitted job waiting for (or holding) a worker."""

    seq: int
    cost: int
    klass: str
    enqueued_at: float
    job: Dict
    future: Future = field(default_factory=Future)
    dispatched: bool = False


class WorkerPool:
    """Long-lived executor of decomposition jobs with graceful degradation."""

    def __init__(self, config: PoolConfig) -> None:
        self.config = config
        self.workers = resolve_workers(config.workers)
        self.mode = "unstarted"
        #: Solve backend the startup probe found (``compiled``/``reference``).
        self.kernels = "unstarted"
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._executor = None
        self._stopping = False
        self._seq = 0
        self._active = 0
        #: Cost order (lazy deletion: entries stay until popped).
        self._heap: List[Tuple[int, int, _PendingJob]] = []
        #: Arrival order, for the age-based anti-starvation bump.
        self._fifo: Deque[_PendingJob] = deque()
        self._queued: Dict[str, int] = {klass: 0 for klass in PRIORITY_CLASSES}
        self._counters = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "priority_bumps": 0,
        }
        #: Admission-queue wait (enqueue → dispatch to a worker), rendered
        #: as ``repro_pool_queue_wait_seconds`` on ``/metrics``.  The owning
        #: server may additionally attach its stage HistogramVec here so
        #: queue waits show up as a ``queue_wait`` stage alongside the span
        #: stages (see :mod:`repro.obs.observer`).
        self.queue_wait = Histogram()
        self.stage_histograms = None

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Create the workers; must be called exactly once before ``submit``."""
        if self._executor is not None:
            raise RuntimeError("pool already started")
        self._executor, self.mode, self.kernels = self._build_executor()

    def _build_executor(self):
        initargs = (self.config.cache_db, self.config.cache_max_entries)
        if not self.config.force_inline:
            executor = None
            try:
                executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_worker_init,
                    initargs=initargs,
                )
                # Force worker creation now: a pool that cannot fork must
                # fail at startup (and degrade), not on the first request.
                kernels = executor.submit(_worker_probe).result(timeout=60)
                return executor, "process", kernels
            except Exception:
                # Partially-forked workers, pipes and the queue-management
                # thread must not leak into the thread-mode fallback.
                if executor is not None:
                    executor.shutdown(wait=False, cancel_futures=True)
        executor = ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix="repro-worker",
            initializer=_worker_init,
            initargs=initargs,
        )
        # Probe this mode too: if the worker initializer itself is broken
        # (e.g. an unusable cache_db path), the server must fail at startup
        # with the real error — not report healthy and 500 every request.
        try:
            kernels = executor.submit(_worker_probe).result(timeout=60)
        except Exception:
            executor.shutdown(wait=False, cancel_futures=True)
            raise
        return executor, "inline", kernels

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers; with ``wait`` the call blocks until jobs finish.

        ``wait=True`` drains the admission queue too — queued jobs were
        admitted, so a graceful drain completes them.  ``wait=False``
        cancels everything still queued and abandons the executor.
        """
        with self._lock:
            self._stopping = True
            if wait:
                self._drained.wait_for(
                    lambda: self._active == 0 and not self._pending_count_locked()
                )
                cancelled: List[_PendingJob] = []
            else:
                cancelled = [entry for entry in self._fifo if not entry.dispatched]
                for entry in cancelled:
                    entry.dispatched = True
                    self._queued[entry.klass] -= 1
                self._fifo.clear()
                self._heap.clear()
            executor, self._executor = self._executor, None
        for entry in cancelled:
            entry.future.cancel()
        if executor is not None:
            executor.shutdown(wait=wait)

    # -------------------------------------------------------------- serving
    def submit(self, job: Dict, klass: str = "interactive") -> Future:
        """Queue one job dict; the future resolves to the response payload.

        ``klass`` is the priority class reported in queue-depth telemetry
        (``interactive`` for single requests, ``batch`` for batch members);
        dispatch order itself is by estimated cost, smallest first.
        """
        if klass not in self._queued:
            klass = "interactive"
        entry = _PendingJob(
            seq=0,
            cost=estimate_job_cost(job),
            klass=klass,
            enqueued_at=time.monotonic(),
            job=job,
        )
        with self._lock:
            if self._stopping or self.mode == "unstarted":
                raise RuntimeError("pool is not running")
            self._seq += 1
            entry.seq = self._seq
            self._counters["submitted"] += 1
            self._queued[entry.klass] += 1
            heapq.heappush(self._heap, (entry.cost, entry.seq, entry))
            self._fifo.append(entry)
            failures, submissions = self._dispatch_locked()
        entry.future.add_done_callback(self._on_done)
        self._after_dispatch(failures, submissions)
        return entry.future

    # ----------------------------------------------------------- dispatching
    def _pending_count_locked(self) -> int:
        return sum(self._queued.values())

    def _pick_locked(self) -> Optional[_PendingJob]:
        """Choose the next job: cheapest, unless the oldest has starved."""
        while self._fifo and self._fifo[0].dispatched:
            self._fifo.popleft()
        while self._heap and self._heap[0][2].dispatched:
            heapq.heappop(self._heap)
        if not self._fifo:
            return None
        oldest = self._fifo[0]
        cheapest = self._heap[0][2]
        age = time.monotonic() - oldest.enqueued_at
        if oldest is not cheapest and age >= self.config.starvation_age_seconds:
            self._counters["priority_bumps"] += 1
            chosen = oldest
        else:
            chosen = cheapest
        chosen.dispatched = True
        self._queued[chosen.klass] -= 1
        waited = time.monotonic() - chosen.enqueued_at
        self.queue_wait.observe(waited)
        if self.stage_histograms is not None:
            self.stage_histograms.observe("queue_wait", waited)
        return chosen

    def _dispatch_locked(
        self,
    ) -> Tuple[
        List[Tuple[_PendingJob, BaseException]], List[Tuple[_PendingJob, Future]]
    ]:
        """Feed free workers from the queue (caller holds the lock).

        Returns ``(failures, submissions)``.  The caller must process both
        *after* releasing the lock: failed entries get their futures failed,
        submitted entries get their done-callback attached.  Attaching the
        callback under the lock would deadlock — a job that finishes before
        ``add_done_callback`` runs invokes the callback synchronously on
        this thread, and :meth:`_on_worker_done` re-acquires the lock.
        """
        failures: List[Tuple[_PendingJob, BaseException]] = []
        submissions: List[Tuple[_PendingJob, Future]] = []
        while self._active < self.workers:
            if not self._pending_count_locked():
                break
            entry = self._pick_locked()
            if entry is None:
                break
            try:
                inner = self._submit_to_executor_locked(entry.job)
            except Exception as exc:
                # Rebuild failed too: fail this job, keep draining the queue
                # (the next dispatch retries a fresh executor).
                failures.append((entry, exc))
                continue
            self._active += 1
            submissions.append((entry, inner))
        return failures, submissions

    def _after_dispatch(
        self,
        failures: List[Tuple[_PendingJob, BaseException]],
        submissions: List[Tuple[_PendingJob, Future]],
    ) -> None:
        """Lock-free tail of a dispatch round: wire callbacks, fail entries."""
        for entry, inner in submissions:
            inner.add_done_callback(
                lambda inner_future, pending=entry: self._on_worker_done(
                    pending, inner_future
                )
            )
        for entry, exc in failures:
            entry.future.set_exception(exc)

    def _submit_to_executor_locked(self, job: Dict) -> Future:
        if self._executor is None:
            self._executor, self.mode, self.kernels = self._build_executor()
        try:
            return self._executor.submit(_worker_run, job)
        except Exception:
            # A worker died hard (OOM kill) and broke the pool: rebuild it
            # once and retry, so one bad request cannot take the service
            # down for good.
            self._executor.shutdown(wait=False)
            self._executor, self.mode, self.kernels = self._build_executor()
            return self._executor.submit(_worker_run, job)

    def _on_worker_done(self, entry: _PendingJob, inner: Future) -> None:
        with self._lock:
            self._active -= 1
            failures, submissions = self._dispatch_locked()
            if self._active == 0 and not self._pending_count_locked():
                self._drained.notify_all()
        self._after_dispatch(failures, submissions)
        # Propagate outside the lock: the outer future's done-callbacks (the
        # server's slot release, user code) must never run under it.
        if inner.cancelled():
            entry.future.cancel()
            return
        exc = inner.exception()
        if exc is not None:
            entry.future.set_exception(exc)
        else:
            entry.future.set_result(inner.result())

    def _on_done(self, future: Future) -> None:
        with self._lock:
            if future.cancelled() or future.exception() is not None:
                self._counters["failed"] += 1
            else:
                self._counters["completed"] += 1

    def stats(self) -> Dict[str, object]:
        """Snapshot for ``/stats``."""
        with self._lock:
            counters = dict(self._counters)
            queue_depth = dict(self._queued)
            active = self._active
        return {
            "mode": self.mode,
            "kernels": self.kernels,
            "workers": self.workers,
            "active": active,
            "queue_depth": queue_depth,
            **counters,
        }
