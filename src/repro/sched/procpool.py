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
* **One queue.**  Each batch runs on a :class:`~repro.sched.tasks.
  TaskQueue`: every lane (one worker process) registers as a queue
  worker and is handed the heaviest pending task, ties by id -- the
  farm's dispatch order and retry rule, written once in the queue.
* **Crash containment.**  A worker that dies mid-task (OOM kill,
  SIGKILL, segfault in an extension) surfaces as EOF on its pipe; the
  queue charges the task one attempt and puts it back on the pending
  list, where it is handed out by weight again.  A task past
  ``retry_limit`` fails the batch with
  :class:`~repro.sched.tasks.TaskFailure`.  A replacement worker
  takes the dead lane while work remains.
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
from typing import Dict, List, Optional, Sequence, Tuple

from .events import BuildEvent, EventLog
from .tasks import Task, TaskQueue

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
                 "started_at", "last_used")

    def __init__(self, lane: int, process, conn) -> None:
        self.lane = lane
        self.process = process
        self.conn = conn
        self.task: Optional[Task] = None
        self.sent_us = 0
        self.started_at = time.perf_counter()
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
        self._workers.append(worker)
        return worker

    def _stop_worker(self, worker: _Worker, timeout: float = 2.0) -> None:
        """Take ``worker`` out of the pool and stop it: stop sentinel,
        join, escalating to terminate/kill."""
        if worker in self._workers:
            self._workers.remove(worker)
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

        The batch runs through a :class:`~repro.sched.tasks.TaskQueue`
        with one registered worker per lane, so its dispatch order and
        retry budget are the queue's.  Raises :class:`~repro.sched.
        tasks.TaskFailure` when any task exhausts its retry budget; one
        batch runs at a time (the pool lock serializes callers).
        """
        if not tasks:
            return {}
        with self._lock:
            if self.closed:
                raise RuntimeError("pool is closed")
            target = max(1, min(int(jobs), len(tasks)))
            queue = TaskQueue(self.retry_limit)
            queue.submit([Task(*task) for task in tasks])
            lanes: List[_Worker] = []
            try:
                while not queue.failed:
                    self._staff(queue, lanes, target)
                    for worker in list(lanes):
                        if worker.task is None:
                            self._send(queue, lanes, worker, events)
                    busy = [w for w in lanes if w.task is not None]
                    if not busy:
                        break
                    ready = multiprocessing.connection.wait(
                        [w.conn for w in busy], timeout=1.0
                    )
                    for worker in busy:
                        if worker.conn in ready:
                            self._receive(queue, lanes, worker, events,
                                          category)
                return queue.wait([task[0] for task in tasks], timeout=0)
            except BaseException:
                # A failed batch leaves in-flight workers in an unknown
                # protocol state; drop them so the next batch starts
                # clean.
                for worker in lanes:
                    if worker.task is not None:
                        self._stop_worker(worker, timeout=1.0)
                raise
            finally:
                self.tasks_done += queue.completed
                self.tasks_failed += queue.failed
                self.requeues += queue.requeues

    def _staff(self, queue: TaskQueue, lanes: List[_Worker],
               target: int) -> None:
        """Register ``target`` lanes on the queue: idle pool workers
        first, then fresh spawns (which also replace dead lanes)."""
        while len(lanes) < target:
            worker = next((w for w in self._workers if w not in lanes),
                          None) or self._spawn()
            lanes.append(worker)
            queue.register_worker(str(worker.lane))

    def _send(self, queue: TaskQueue, lanes: List[_Worker],
              worker: _Worker, events: Optional[EventLog]) -> None:
        worker.task = queue.next_for(str(worker.lane), timeout=0)
        if worker.task is None:
            return
        worker.sent_us = events.now_us() if events is not None else 0
        try:
            worker.conn.send((worker.task.task_id, worker.task.payload))
        except (OSError, BrokenPipeError, ValueError):
            self._on_crash(queue, lanes, worker)

    def _receive(self, queue: TaskQueue, lanes: List[_Worker],
                 worker: _Worker, events: Optional[EventLog],
                 category: str) -> None:
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self._on_crash(queue, lanes, worker)
            return
        if message[0] == _READY:
            self.spawn_seconds += time.perf_counter() - worker.started_at
            return
        task_id, ok, payload = message
        worker.task = None
        worker.last_used = time.monotonic()
        if not ok:
            queue.fail(str(worker.lane), task_id, str(payload))
            return
        queue.complete(str(worker.lane), task_id, payload)
        if events is not None:
            now = events.now_us()
            events.append(BuildEvent(
                task_id, category, "span", worker.sent_us,
                now - worker.sent_us, worker.lane,
            ))

    def _on_crash(self, queue: TaskQueue, lanes: List[_Worker],
                  worker: _Worker) -> None:
        """A dead pipe fails its task one attempt and takes the lane off
        the queue; :meth:`_staff` registers a replacement."""
        self.crashes += 1
        if worker.task is not None:
            queue.fail(str(worker.lane), worker.task.task_id,
                       "worker process died")
            worker.task = None
        queue.unregister_worker(str(worker.lane))
        lanes.remove(worker)
        self._stop_worker(worker, timeout=1.0)

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
        # Lock-free: a batch holds the pool lock for its whole run, and
        # the coordinator's ``status`` must not wait for a build.
        return {
            "workers": len(self._workers),
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
