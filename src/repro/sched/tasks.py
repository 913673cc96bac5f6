"""The LTRANS dispatch queue: one pending list, heaviest task first.

Every job that runs outside the link process goes through a
:class:`TaskQueue`.  The farm coordinator owns one, and each worker
connection registers under a worker id; the local process pool
(:mod:`repro.sched.procpool`) runs each batch on one of its own, with
one registered worker per worker process.  Workers pull tasks through
:meth:`~TaskQueue.next_for`.  A worker holds at most one task at a
time, so handing the heaviest pending task (ties broken by id) to
whichever worker asks next is the longest-processing-time-first list
schedule.  Nothing is placed ahead of time, so a worker that registers
after :meth:`~TaskQueue.submit` gets work at once and a slow one never
holds a backlog.

A **failed or disconnected** worker's in-flight task goes back on the
pending list charged one attempt, and is handed out by weight again,
not at the front.  A task that exceeds ``retry_limit`` attempts fails
the whole batch (the waiter gets :class:`TaskFailure`) instead of
cycling forever.

The queue is transport-agnostic: it never touches a socket or a pipe.
Workers here are *lanes* -- a farm worker daemon with ``--jobs 4``
registers four connections, a pool batch with ``jobs=4`` four
processes.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple


class TaskFailure(Exception):
    """A task exhausted its retry budget; ``task_id``/``attempts``
    identify it and ``reason`` carries the last worker's error."""

    def __init__(self, task_id: str, attempts: int, reason: str) -> None:
        super().__init__(
            "task %s failed after %d attempt(s): %s"
            % (task_id, attempts, reason)
        )
        self.task_id = task_id
        self.attempts = attempts
        self.reason = reason


class Task:
    """One unit of dispatchable work."""

    __slots__ = ("task_id", "payload", "weight", "attempts")

    def __init__(self, task_id: str, payload, weight: int = 1) -> None:
        self.task_id = task_id
        self.payload = payload
        self.weight = weight
        self.attempts = 0

    def __repr__(self) -> str:
        return "<Task %s w=%d a=%d>" % (
            self.task_id, self.weight, self.attempts,
        )


class TaskQueue:
    """Bounded-retry pull queue (see module docstring)."""

    def __init__(self, retry_limit: int = 2) -> None:
        if retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")
        self.retry_limit = retry_limit
        self._cond = threading.Condition()
        self._workers: Set[str] = set()
        self._pending: List[Task] = []
        self._inflight: Dict[Tuple[str, str], Task] = {}
        self._results: Dict[str, object] = {}
        self._failures: Dict[str, TaskFailure] = {}
        self._closed = False
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.requeues = 0

    # -- Workers ---------------------------------------------------------------------

    def register_worker(self, worker_id: str) -> None:
        with self._cond:
            if worker_id in self._workers:
                raise ValueError("worker %r already registered" % worker_id)
            self._workers.add(worker_id)
            self._cond.notify_all()

    def unregister_worker(self, worker_id: str) -> None:
        """Drop a worker; its in-flight task re-queues and counts the
        lost run as an attempt (the worker may have died *because* of
        it)."""
        with self._cond:
            self._workers.discard(worker_id)
            for key in [key for key in self._inflight
                        if key[0] == worker_id]:
                task = self._inflight.pop(key)
                task.attempts += 1
                self._retire_or_requeue(
                    task, "worker %s disconnected" % worker_id
                )
            self._cond.notify_all()

    def worker_count(self) -> int:
        with self._cond:
            return len(self._workers)

    def is_registered(self, worker_id: str) -> bool:
        with self._cond:
            return not self._closed and worker_id in self._workers

    # -- Submission and dispatch -----------------------------------------------------

    def submit(self, tasks: Sequence[Task]) -> None:
        with self._cond:
            if self._closed:
                raise RuntimeError("queue is closed")
            self._pending.extend(tasks)
            self.submitted += len(tasks)
            self._cond.notify_all()

    def next_for(self, worker_id: str,
                 timeout: Optional[float] = None) -> Optional[Task]:
        """The heaviest pending task (ties by id) for ``worker_id``.
        Blocks up to ``timeout`` (None = forever); returns None on
        timeout, queue close, or if the worker was unregistered while
        waiting."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if self._closed or worker_id not in self._workers:
                    return None
                if self._pending:
                    task = min(self._pending,
                               key=lambda t: (-t.weight, t.task_id))
                    self._pending.remove(task)
                    self._inflight[(worker_id, task.task_id)] = task
                    return task
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return None
                self._cond.wait(timeout=remaining)

    def run_batch(self, tasks: Sequence[Tuple[str, object, int]],
                  timeout: Optional[float] = None) -> Dict[str, object]:
        """Submit ``(task_id, payload, weight)`` tasks for the
        registered workers and :meth:`wait` for them; the call shape of
        :meth:`~repro.sched.procpool.ProcessWorkerPool.run_batch`, so
        :func:`~repro.part.runner.queue_jobs` drives either."""
        self.submit([Task(*task) for task in tasks])
        return self.wait([task[0] for task in tasks], timeout=timeout)

    # -- Completion ------------------------------------------------------------------

    def complete(self, worker_id: str, task_id: str, result) -> None:
        with self._cond:
            self._inflight.pop((worker_id, task_id), None)
            self._results[task_id] = result
            self.completed += 1
            self._cond.notify_all()

    def fail(self, worker_id: str, task_id: str, reason: str) -> None:
        """A worker reported failure; re-queue or retire the task."""
        with self._cond:
            task = self._inflight.pop((worker_id, task_id), None)
            if task is None:
                return
            task.attempts += 1
            self._retire_or_requeue(task, reason)
            self._cond.notify_all()

    def _retire_or_requeue(self, task: Task, reason: str) -> None:
        if task.attempts > self.retry_limit:
            self.failed += 1
            self._failures[task.task_id] = TaskFailure(
                task.task_id, task.attempts, reason
            )
        else:
            self.requeues += 1
            self._pending.append(task)

    # -- Waiting ---------------------------------------------------------------------

    def wait(self, task_ids: Sequence[str],
             timeout: Optional[float] = None) -> Dict[str, object]:
        """Block until every task finished; returns ``{id: result}``.

        Raises :class:`TaskFailure` when any task exhausted its
        retries and ``TimeoutError`` when ``timeout`` elapses first.
        Finished tasks are consumed (removed from the queue's result
        map) so ids can be reused across batches."""
        deadline = None if timeout is None else time.monotonic() + timeout
        wanted = list(task_ids)
        with self._cond:
            while True:
                for task_id in wanted:
                    failure = self._failures.get(task_id)
                    if failure is not None:
                        del self._failures[task_id]
                        raise failure
                if all(tid in self._results for tid in wanted):
                    return {tid: self._results.pop(tid) for tid in wanted}
                if self._closed:
                    raise TaskFailure(
                        "?", 0, "queue closed while waiting"
                    )
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    missing = [tid for tid in wanted
                               if tid not in self._results]
                    raise TimeoutError(
                        "timed out waiting for %d task(s): %s"
                        % (len(missing), ", ".join(missing[:4]))
                    )
                self._cond.wait(timeout=remaining)

    # -- Lifecycle / stats -----------------------------------------------------------

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def stats(self) -> Dict[str, int]:
        with self._cond:
            return {
                "workers": len(self._workers),
                "queued": len(self._pending),
                "inflight": len(self._inflight),
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "requeues": self.requeues,
            }
