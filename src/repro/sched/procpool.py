"""A persistent pool of worker *processes* for CPU-bound tasks.

Threads only help tasks that release the GIL (I/O, subprocesses); the
partitioned LTRANS phase is pure Python and fully GIL-serialized, so
``--hlo-jobs 4`` on threads buys zero CPU parallelism (see
BENCH_hlo_parallel.json before this backend existed: 1.05x best
case).  :class:`ProcessWorkerPool` runs the same task shape --
``worker_fn(payload) -> result`` -- on N child processes instead.

Design points:

* **Spawn-safe protocol.**  ``worker_fn`` must be a module-level
  importable callable and payloads/results must be picklable; each
  worker is a :func:`_worker_main` loop over one duplex pipe
  (``recv (task_id, payload)`` -> ``send (task_id, ok, result)``).
  The default start method is ``fork`` where the platform offers it
  (cheapest; Linux), falling back to ``spawn`` -- and the protocol
  works identically under both, which the test suite pins.
* **Crash containment.**  A worker that dies mid-task (OOM kill,
  SIGKILL, segfault in an extension) surfaces as EOF on its pipe; the
  task is re-queued with its attempt count bumped, bounded by
  ``retry_limit`` exactly like the farm's
  :class:`~repro.sched.tasks.TaskQueue` -- exhaustion raises the
  same :class:`~repro.sched.tasks.TaskFailure`.  A replacement worker
  is spawned while work remains.
* **Warm reuse.**  The pool survives between batches: the coordinator
  keeps one across requests so warm builds skip process spawn (and
  the workers' decoded-context caches stay hot).  :meth:`reap_idle`
  retires workers that have sat idle, and :meth:`close` drains the
  pool (stop sentinel, join, escalating to terminate/kill) -- the
  coordinator calls it from its SIGTERM path.
* **Observability.**  Per-task spans land in the caller's
  :class:`~repro.sched.events.EventLog` on one lane per worker
  (send-to-completion wall clock, measured by the parent), and the
  pool tracks ``spawn_seconds`` / ``crashes`` / ``requeues`` so
  benchmarks can split startup cost from steady-state throughput.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from .events import BuildEvent, EventLog
from .tasks import Task, TaskFailure

#: First message on every worker pipe (carries the worker's pid);
#: consumed by the parent to measure ready latency.
_READY = "__procpool_ready__"


def default_start_method() -> str:
    """``fork`` where available (cheap, Linux), else the platform
    default (``spawn`` on macOS/Windows)."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def processes_available() -> bool:
    """Whether this platform can run the process backend at all."""
    try:
        return bool(multiprocessing.get_all_start_methods())
    except (ImportError, NotImplementedError):  # pragma: no cover
        return False


def cpu_count() -> int:
    """Schedulable CPUs for *this* process (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return max(1, os.cpu_count() or 1)


def _identity(payload):
    """Module-level echo; used by tests to pin spawn-safety."""
    return payload


def _worker_main(conn, worker_fn) -> None:
    """Child process body: serve tasks until the stop sentinel/EOF."""
    try:
        conn.send((_READY, os.getpid()))
    except (OSError, BrokenPipeError, EOFError):
        return
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        task_id, payload = message
        try:
            result = worker_fn(payload)
        except BaseException as exc:  # noqa: BLE001 - reported, not fatal
            try:
                conn.send((task_id, False,
                           "%s: %s" % (type(exc).__name__, exc)))
            except (OSError, BrokenPipeError, EOFError):
                return
            continue
        try:
            conn.send((task_id, True, result))
        except (OSError, BrokenPipeError, EOFError):
            return


class _Worker:
    __slots__ = ("lane", "process", "conn", "task", "sent_us",
                 "started_at", "ready_seen", "last_used")

    def __init__(self, lane: int, process, conn) -> None:
        self.lane = lane
        self.process = process
        self.conn = conn
        self.task: Optional[Task] = None
        self.sent_us = 0
        self.started_at = time.perf_counter()
        self.ready_seen = False
        self.last_used = time.monotonic()


class ProcessWorkerPool:
    """N worker processes running one importable ``worker_fn``."""

    def __init__(
        self,
        worker_fn,
        start_method: Optional[str] = None,
        retry_limit: int = 2,
        idle_seconds: float = 30.0,
    ) -> None:
        if retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")
        self.worker_fn = worker_fn
        self.start_method = start_method or default_start_method()
        self.retry_limit = retry_limit
        self.idle_seconds = idle_seconds
        self._ctx = multiprocessing.get_context(self.start_method)
        self._lock = threading.Lock()
        self._workers: List[_Worker] = []
        self._next_lane = 0
        self.closed = False
        #: Wall-clock from ``Process.start()`` to the worker's ready
        #: handshake, summed over every spawn.
        self.spawn_seconds = 0.0
        self.spawned = 0
        self.crashes = 0
        self.requeues = 0
        self.tasks_done = 0
        self.tasks_failed = 0

    # -- Worker lifecycle --------------------------------------------------------

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.worker_fn),
            daemon=True,
            name="procpool-%d" % self._next_lane,
        )
        worker = _Worker(self._next_lane, process, parent_conn)
        self._next_lane += 1
        process.start()
        child_conn.close()
        self.spawned += 1
        return worker

    def _stop_worker(self, worker: _Worker, timeout: float = 2.0) -> None:
        try:
            worker.conn.send(None)
        except (OSError, BrokenPipeError, ValueError):
            pass
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout)
        if worker.process.is_alive():
            worker.process.terminate()  # SIGTERM
            worker.process.join(1.0)
        if worker.process.is_alive():  # pragma: no cover - stuck child
            worker.process.kill()
            worker.process.join(1.0)

    def _discard_crashed(self, worker: _Worker) -> None:
        """Drop a worker whose pipe broke; never blocks long."""
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(1.0)
        if worker.process.is_alive():  # pragma: no cover
            worker.process.kill()
            worker.process.join(1.0)
        if worker in self._workers:
            self._workers.remove(worker)

    # -- Batch execution ---------------------------------------------------------

    def run_batch(
        self,
        tasks: Sequence[Tuple[str, object, int]],
        jobs: int = 1,
        events: Optional[EventLog] = None,
        category: str = "ltrans",
    ) -> Dict[str, object]:
        """Run ``(task_id, payload, weight)`` tasks on up to ``jobs``
        workers; returns ``{task_id: result}``.

        Heaviest-first dispatch (the same greedy LPT bound the thread
        executor and the farm queue rely on).  Raises
        :class:`TaskFailure` when any task exhausts its retry budget;
        one batch runs at a time (the pool lock serializes callers).
        """
        if not tasks:
            return {}
        with self._lock:
            if self.closed:
                raise RuntimeError("pool is closed")
            return self._run_batch_locked(tasks, jobs, events, category)

    def _run_batch_locked(self, tasks, jobs, events, category):
        target = max(1, min(int(jobs), len(tasks)))
        while len(self._workers) < target:
            self._workers.append(self._spawn())
        eligible = self._workers[:target]

        pending = deque(sorted(
            (Task(tid, payload, weight) for tid, payload, weight in tasks),
            key=lambda task: -task.weight,
        ))
        results: Dict[str, object] = {}
        expected = len(tasks)
        try:
            while len(results) < expected:
                self._assign(eligible, pending, events)
                busy = [w for w in eligible if w.task is not None]
                if not busy:
                    if pending:
                        # Every eligible worker crashed and could not
                        # be replaced; surface the head task.
                        task = pending[0]
                        raise TaskFailure(
                            task.task_id, task.attempts + 1,
                            "no live worker processes",
                        )
                    break
                ready = multiprocessing.connection.wait(
                    [w.conn for w in busy], timeout=1.0
                )
                for conn in ready:
                    worker = next(w for w in busy if w.conn is conn)
                    self._drain_one(worker, eligible, pending, results,
                                    events, category)
            return results
        except BaseException:
            # A failed batch leaves in-flight workers in an unknown
            # protocol state; drop them so the next batch starts clean.
            for worker in list(self._workers):
                if worker.task is not None:
                    self._discard_crashed(worker)
            raise

    def _assign(self, eligible: List[_Worker], pending,
                events: Optional[EventLog]) -> None:
        for worker in eligible:
            if not pending:
                return
            if worker.task is not None:
                continue
            task = pending.popleft()
            worker.task = task
            worker.sent_us = events.now_us() if events is not None else 0
            try:
                worker.conn.send((task.task_id, task.payload))
            except (OSError, BrokenPipeError, ValueError):
                self._on_crash(worker, eligible, pending)

    def _drain_one(self, worker: _Worker, eligible: List[_Worker],
                   pending, results: Dict[str, object],
                   events: Optional[EventLog], category: str) -> None:
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self._on_crash(worker, eligible, pending)
            return
        if isinstance(message, tuple) and message and message[0] == _READY:
            if not worker.ready_seen:
                worker.ready_seen = True
                self.spawn_seconds += time.perf_counter() - worker.started_at
            return
        task_id, ok, payload = message
        task = worker.task
        worker.task = None
        worker.last_used = time.monotonic()
        if task is None or task.task_id != task_id:  # pragma: no cover
            # Protocol skew (should be impossible); drop the worker.
            self._discard_crashed(worker)
            if worker in eligible:
                eligible.remove(worker)
            return
        if ok:
            results[task_id] = payload
            self.tasks_done += 1
            if events is not None:
                now = events.now_us()
                events.append(BuildEvent(
                    task_id, category, "span", worker.sent_us,
                    now - worker.sent_us, worker.lane,
                ))
        else:
            self._retire_or_requeue(task, pending, str(payload))

    def _on_crash(self, worker: _Worker, eligible: List[_Worker],
                  pending) -> None:
        self.crashes += 1
        task = worker.task
        worker.task = None
        self._discard_crashed(worker)
        if worker in eligible:
            eligible.remove(worker)
        if task is not None:
            self._retire_or_requeue(task, pending,
                                    "worker process died", requeue_front=True)
        if pending or any(w.task is not None for w in eligible):
            replacement = self._spawn()
            self._workers.append(replacement)
            eligible.append(replacement)

    def _retire_or_requeue(self, task: Task, pending, reason: str,
                           requeue_front: bool = False) -> None:
        task.attempts += 1
        if task.attempts > self.retry_limit:
            self.tasks_failed += 1
            raise TaskFailure(task.task_id, task.attempts, reason)
        self.requeues += 1
        if requeue_front:
            pending.appendleft(task)
        else:
            pending.append(task)

    # -- Housekeeping ------------------------------------------------------------

    def reap_idle(self, idle_seconds: Optional[float] = None) -> int:
        """Retire workers idle for at least ``idle_seconds``; returns
        how many were reaped.  The coordinator calls this between requests
        so a burst of parallel builds doesn't pin worker processes
        forever."""
        limit = self.idle_seconds if idle_seconds is None else idle_seconds
        now = time.monotonic()
        with self._lock:
            reap = [w for w in self._workers
                    if w.task is None and now - w.last_used >= limit]
            for worker in reap:
                self._workers.remove(worker)
        for worker in reap:
            self._stop_worker(worker)
        return len(reap)

    def worker_pids(self) -> List[int]:
        with self._lock:
            return [w.process.pid for w in self._workers
                    if w.process.pid is not None]

    def stats(self) -> Dict[str, object]:
        with self._lock:
            workers = len(self._workers)
        return {
            "workers": workers,
            "start_method": self.start_method,
            "spawned": self.spawned,
            "spawn_seconds": self.spawn_seconds,
            "crashes": self.crashes,
            "requeues": self.requeues,
            "tasks_done": self.tasks_done,
            "tasks_failed": self.tasks_failed,
        }

    def close(self, timeout: float = 5.0) -> None:
        """Drain the pool: stop sentinel, join, escalate to
        terminate/kill for stragglers.  Idempotent."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            workers = list(self._workers)
            self._workers = []
        deadline = time.monotonic() + timeout
        for worker in workers:
            remaining = max(0.5, deadline - time.monotonic())
            self._stop_worker(worker, timeout=remaining)

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return "<ProcessWorkerPool %s %d workers, %d done>" % (
            self.start_method, len(self._workers), self.tasks_done,
        )
