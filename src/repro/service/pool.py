"""Persistent worker pool executing decomposition jobs for the server.

The pool is created once at server startup and lives until drain: workers
are long-lived processes, each holding its own :class:`Decomposer` wiring
and its own handle on the component cache.  With ``cache_db`` set, every
worker opens the same SQLite store (:mod:`repro.runtime.sqlite_cache`), so a
standard cell solved by one worker is a cache hit for every other worker,
for every later request, and for the next server instance pointed at the
same file.  Without it, each worker keeps a process-private in-memory LRU —
still effective for repeated cells within the worker's own request stream.

Admitted jobs wait in one first-in, first-out queue and are handed to the
executor only when a worker is free.  Jobs share no mutable state, so the
order in which they run changes who waits, never an answer.  Holding the
queue here rather than in the executor keeps the queue wait (enqueue to
dispatch, :attr:`WorkerPool.queue_wait`, rendered as
``repro_pool_queue_wait_seconds``) measured in the server process and
``active`` and ``queue_depth`` in :meth:`~WorkerPool.stats` exact.  It
also bounds what a worker crash costs: a process pool fails every job it
holds when one worker dies, and it holds only the running ones, so the
queued jobs run on the rebuilt executor.

Environments that cannot fork (locked-down sandboxes) are detected at
startup by running a probe job through the pool; on failure the pool falls
back to long-lived *threads* in the server process, trading parallelism for
availability — the same correctness, since jobs never share mutable state.
The active mode is reported by ``/healthz`` and ``/stats``.  The same probe
loads the compiled solve core in a worker and reports which backend solves
actually run on (``compiled`` or ``reference``), so a box without a C
compiler is visible in ``/stats`` and ``repro_build_info`` instead of only
in its latency.

A worker process would outlive a server that dies without shutting its
pool down (SIGKILL, the OOM killer), so each one polls its parent PID from
a daemon thread and exits once the server is no longer its parent.

A layout job carries its decomposed layer as packed integer arrays
(:class:`~repro.geometry.outlines.Outlines`, see
:mod:`repro.service.protocol`), so crossing the process boundary pickles a
few buffers, not a layout document; the workers are processes of the
server's own build, so the job needs no version-independent form.  A
result is the response dict.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.decomposer import Decomposer
from repro.obs.hist import Histogram
from repro.runtime.cache import open_cache
from repro.runtime.pipeline import resolve_workers
from repro.service import protocol

#: Per-thread (and, in process mode, per-process) worker state.  A
#: ``threading.local`` covers both executors: a worker process runs its
#: initializer and all its jobs on one thread, a thread-pool worker is a
#: thread by definition.
_worker_state = threading.local()


#: Seconds between a worker process's checks that its server is alive.
PARENT_POLL_SECONDS = 0.5


def _worker_init(
    cache_db: Optional[str],
    cache_max_entries: Optional[int],
    server_pid: Optional[int] = None,
) -> None:
    """Executor initializer: build this worker's cache handle exactly once.

    A process worker gets its ``server_pid`` and, when the server is its
    parent (the fork and spawn start methods), starts the watchdog that
    ends it once the server is gone; a thread worker gets ``None``.
    """
    _worker_state.cache = open_cache(db_path=cache_db, max_entries=cache_max_entries)
    if server_pid is not None and os.getppid() == server_pid:
        threading.Thread(
            target=_exit_when_orphaned,
            args=(server_pid,),
            name="repro-parent-watch",
            daemon=True,
        ).start()


def _exit_when_orphaned(server_pid: int) -> None:
    """Exit this worker process as soon as ``server_pid`` is not its parent.

    A dead parent's children are re-parented (to PID 1 or a subreaper), so
    the parent PID changes the moment the server dies, however it died.
    """
    while os.getppid() == server_pid:
        time.sleep(PARENT_POLL_SECONDS)
    os._exit(1)


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


@dataclass
class _PendingJob:
    """One admitted job waiting for (or holding) a worker."""

    enqueued_at: float
    job: Dict
    future: Future = field(default_factory=Future)


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
        self._active = 0
        #: Admitted jobs not yet handed to a worker, oldest first.
        self._queue: Deque[_PendingJob] = deque()
        self._counters = {"submitted": 0, "completed": 0, "failed": 0}
        #: Admission-queue wait (enqueue → dispatch to a worker), rendered
        #: as ``repro_pool_queue_wait_seconds`` on ``/metrics``.
        self.queue_wait = Histogram()

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
                    initargs=(*initargs, os.getpid()),
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
                self._drained.wait_for(lambda: self._active == 0 and not self._queue)
                cancelled: List[_PendingJob] = []
            else:
                cancelled, self._queue = list(self._queue), deque()
            executor, self._executor = self._executor, None
        for entry in cancelled:
            entry.future.cancel()
        if executor is not None:
            executor.shutdown(wait=wait)

    # -------------------------------------------------------------- serving
    def submit(self, job: Dict) -> Future:
        """Queue one job dict; the future resolves to the response payload."""
        entry = _PendingJob(enqueued_at=time.monotonic(), job=job)
        with self._lock:
            if self._stopping or self.mode == "unstarted":
                raise RuntimeError("pool is not running")
            self._counters["submitted"] += 1
            self._queue.append(entry)
            failures, submissions = self._dispatch_locked()
        entry.future.add_done_callback(self._on_done)
        self._after_dispatch(failures, submissions)
        return entry.future

    # ----------------------------------------------------------- dispatching
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
        while self._queue and self._active < self.workers:
            entry = self._queue.popleft()
            self.queue_wait.observe(time.monotonic() - entry.enqueued_at)
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
            if self._active == 0 and not self._queue:
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
            queue_depth = len(self._queue)
            active = self._active
        return {
            "mode": self.mode,
            "kernels": self.kernels,
            "workers": self.workers,
            "active": active,
            "queue_depth": queue_depth,
            **counters,
        }
