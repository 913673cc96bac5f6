"""TaskQueue: heaviest-first pulls, re-queue, retry caps."""

import threading
import time

import pytest

from repro.sched.tasks import Task, TaskFailure, TaskQueue


def tasks(*specs):
    """``("id", weight)`` pairs -> Tasks."""
    return [Task(task_id, {"id": task_id}, weight=weight)
            for task_id, weight in specs]


class TestRegistration:
    def test_register_and_count(self):
        queue = TaskQueue()
        queue.register_worker("a")
        queue.register_worker("b")
        assert queue.worker_count() == 2
        assert queue.is_registered("a")

    def test_duplicate_register_rejected(self):
        queue = TaskQueue()
        queue.register_worker("a")
        with pytest.raises(ValueError):
            queue.register_worker("a")

    def test_negative_retry_limit_rejected(self):
        with pytest.raises(ValueError):
            TaskQueue(retry_limit=-1)


class TestPullOrder:
    def test_heaviest_goes_to_whichever_worker_asks_first(self):
        queue = TaskQueue()
        queue.register_worker("a")
        queue.register_worker("b")
        queue.submit(tasks(("t1", 1), ("t2", 4), ("t3", 5), ("t4", 8)))
        # No task is placed ahead of time: b asks first and gets the
        # heaviest, then a gets the next heaviest.
        assert queue.next_for("b", timeout=1.0).task_id == "t4"
        assert queue.next_for("a", timeout=1.0).task_id == "t3"
        assert queue.next_for("a", timeout=1.0).task_id == "t2"
        assert queue.next_for("b", timeout=1.0).task_id == "t1"
        assert queue.next_for("a", timeout=0.05) is None

    def test_ties_break_by_id(self):
        queue = TaskQueue()
        queue.register_worker("a")
        queue.submit(tasks(("t2", 3), ("t3", 3)))
        queue.submit(tasks(("t1", 3)))
        order = [queue.next_for("a", timeout=1.0).task_id
                 for _ in range(3)]
        assert order == ["t1", "t2", "t3"]

    def test_a_worker_registered_after_submit_gets_work_at_once(self):
        queue = TaskQueue()
        queue.register_worker("early")
        queue.submit(tasks(("t1", 2), ("t2", 1)))
        queue.register_worker("late")
        task = queue.next_for("late", timeout=0)
        assert task is not None and task.task_id == "t1"

    def test_submit_before_any_worker(self):
        queue = TaskQueue()
        queue.submit(tasks(("t1", 1)))
        queue.register_worker("a")
        task = queue.next_for("a", timeout=1.0)
        assert task is not None and task.task_id == "t1"

    def test_a_parked_worker_wakes_on_submit(self):
        queue = TaskQueue()
        queue.register_worker("a")
        got = []
        thread = threading.Thread(
            target=lambda: got.append(queue.next_for("a", timeout=10.0))
        )
        thread.start()
        time.sleep(0.05)
        queue.submit(tasks(("t1", 1)))
        thread.join(timeout=5.0)
        assert [task.task_id for task in got] == ["t1"]

    def test_submit_after_close_rejected(self):
        queue = TaskQueue()
        queue.close()
        with pytest.raises(RuntimeError):
            queue.submit(tasks(("t1", 1)))


class TestCompletion:
    def test_wait_returns_results_by_id(self):
        queue = TaskQueue()
        queue.register_worker("a")
        queue.submit(tasks(("t1", 1), ("t2", 1)))
        for _ in range(2):
            task = queue.next_for("a", timeout=1.0)
            queue.complete("a", task.task_id, {"ran": task.task_id})
        results = queue.wait(["t1", "t2"], timeout=1.0)
        assert results["t1"] == {"ran": "t1"}
        assert results["t2"] == {"ran": "t2"}

    def test_results_consumed_ids_reusable(self):
        queue = TaskQueue()
        queue.register_worker("a")
        for round_no in range(2):
            queue.submit(tasks(("t1", 1)))
            task = queue.next_for("a", timeout=1.0)
            queue.complete("a", task.task_id, round_no)
            assert queue.wait(["t1"], timeout=1.0) == {"t1": round_no}

    def test_wait_timeout(self):
        queue = TaskQueue()
        queue.submit(tasks(("t1", 1)))
        with pytest.raises(TimeoutError, match="t1"):
            queue.wait(["t1"], timeout=0.05)

    def test_wait_raises_after_close(self):
        queue = TaskQueue()
        queue.submit(tasks(("t1", 1)))
        queue.close()
        with pytest.raises(TaskFailure, match="closed"):
            queue.wait(["t1"], timeout=1.0)

    def test_run_batch_submits_and_waits(self):
        queue = TaskQueue()
        queue.register_worker("a")

        def serve():
            for _ in range(2):
                task = queue.next_for("a", timeout=10.0)
                queue.complete("a", task.task_id, task.payload * 2)

        thread = threading.Thread(target=serve)
        thread.start()
        results = queue.run_batch([("t1", 1, 1), ("t2", 2, 5)],
                                  timeout=10.0)
        thread.join(10.0)
        assert not thread.is_alive()
        assert results == {"t1": 2, "t2": 4}
        assert queue.stats()["submitted"] == 2


class TestFailure:
    def test_failed_task_requeues(self):
        queue = TaskQueue(retry_limit=2)
        queue.register_worker("a")
        queue.submit(tasks(("t1", 1)))
        task = queue.next_for("a", timeout=1.0)
        queue.fail("a", task.task_id, "boom")
        assert queue.requeues == 1
        retry = queue.next_for("a", timeout=1.0)
        assert retry.task_id == "t1" and retry.attempts == 1
        queue.complete("a", "t1", {"ok": True})
        assert queue.wait(["t1"], timeout=1.0)["t1"] == {"ok": True}

    def test_retry_cap_fails_the_waiter(self):
        queue = TaskQueue(retry_limit=1)
        queue.register_worker("a")
        queue.submit(tasks(("t1", 1)))
        for _ in range(2):  # retry_limit=1 -> 2 attempts allowed
            task = queue.next_for("a", timeout=1.0)
            queue.fail("a", task.task_id, "boom")
        assert queue.next_for("a", timeout=0.05) is None  # retired
        with pytest.raises(TaskFailure, match="boom") as exc_info:
            queue.wait(["t1"], timeout=1.0)
        assert exc_info.value.attempts == 2


class TestDisconnect:
    def test_unregister_requeues_inflight_with_an_attempt(self):
        queue = TaskQueue(retry_limit=2)
        queue.register_worker("dead")
        queue.submit(tasks(("t1", 2), ("t2", 1)))
        inflight = queue.next_for("dead", timeout=1.0)
        assert inflight.task_id == "t1"
        queue.unregister_worker("dead")
        assert queue.worker_count() == 0
        assert queue.requeues == 1
        queue.register_worker("alive")
        rescued = {}
        for _ in range(2):
            task = queue.next_for("alive", timeout=1.0)
            rescued[task.task_id] = task.attempts
            queue.complete("alive", task.task_id, {})
        # The in-flight task's lost run counts as an attempt (the
        # worker may have died because of it); the pending one was
        # never handed out and is untouched.
        assert rescued == {"t1": 1, "t2": 0}
        queue.wait(["t1", "t2"], timeout=1.0)

    def test_inflight_disconnect_respects_retry_cap(self):
        queue = TaskQueue(retry_limit=0)
        queue.register_worker("dead")
        queue.submit(tasks(("t1", 1)))
        queue.next_for("dead", timeout=1.0)
        queue.unregister_worker("dead")
        with pytest.raises(TaskFailure, match="disconnected"):
            queue.wait(["t1"], timeout=1.0)

    def test_next_for_unregistered_returns_none(self):
        queue = TaskQueue()
        queue.register_worker("a")
        queue.unregister_worker("a")
        assert queue.next_for("a", timeout=0.05) is None

    def test_unregister_wakes_parked_worker(self):
        queue = TaskQueue()
        queue.register_worker("a")
        got = []

        def park():
            got.append(queue.next_for("a", timeout=10.0))

        thread = threading.Thread(target=park)
        thread.start()
        time.sleep(0.05)
        queue.unregister_worker("a")
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert got == [None]


class TestStats:
    def test_stats_shape(self):
        queue = TaskQueue()
        queue.register_worker("a")
        queue.submit(tasks(("t1", 1)))
        stats = queue.stats()
        assert stats["workers"] == 1
        assert stats["queued"] == 1
        assert stats["submitted"] == 1
        assert stats["inflight"] == 0
