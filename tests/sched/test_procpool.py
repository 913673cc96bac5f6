"""Unit tests for the process worker pool.

The pool is the trust anchor of the process LTRANS backend: task
results must come back complete and attributable, worker crashes must
re-queue within the retry budget (and raise :class:`TaskFailure`
beyond it), and warm pools must reuse processes across batches.

Worker functions live at module level so the same suite passes under
``fork`` and ``spawn`` start methods.
"""

import os
import signal

import pytest

from repro.sched.events import EventLog
from repro.sched.procpool import (
    ProcessWorkerPool,
    _identity,
    cpu_count,
    default_start_method,
    processes_available,
)
from repro.sched.tasks import TaskFailure


def _double(payload):
    return payload * 2


def _boom(payload):
    raise ValueError("bad payload %r" % (payload,))


def _claim(marker):
    """Atomically claim a marker file; True for exactly one caller."""
    try:
        os.unlink(marker)
    except OSError:
        return False
    return True


def _kill_if_marker(payload):
    """SIGKILL this worker iff it claims the marker; else echo."""
    if _claim(payload["marker"]):
        os.kill(os.getpid(), signal.SIGKILL)
    return payload["value"]


def _fail_if_marker(payload):
    """Raise (cleanly) iff this worker claims the marker; else echo."""
    if _claim(payload["marker"]):
        raise ValueError("transient failure")
    return payload["value"]


def _tasks(n, weight=1):
    return [("t%d" % i, i, weight) for i in range(n)]


class TestBasics:
    def test_platform_sanity(self):
        assert processes_available()
        assert cpu_count() >= 1
        assert default_start_method() in ("fork", "spawn", "forkserver")

    def test_run_batch_returns_every_result(self):
        with ProcessWorkerPool(_double) as pool:
            results = pool.run_batch(_tasks(6), jobs=2)
        assert results == {"t%d" % i: i * 2 for i in range(6)}

    def test_empty_batch_is_a_noop(self):
        with ProcessWorkerPool(_double) as pool:
            assert pool.run_batch([], jobs=4) == {}
            assert pool.spawned == 0

    def test_jobs_clamped_to_task_count(self):
        with ProcessWorkerPool(_double) as pool:
            pool.run_batch(_tasks(2), jobs=16)
            assert pool.stats()["workers"] <= 2

    def test_spawn_start_method_round_trips(self):
        # The protocol must be identical under spawn (macOS/Windows
        # default): worker_fn and payloads travel by pickle.
        with ProcessWorkerPool(_identity, start_method="spawn") as pool:
            results = pool.run_batch(
                [("a", {"k": [1, 2]}, 1), ("b", "text", 1)], jobs=2
            )
        assert results == {"a": {"k": [1, 2]}, "b": "text"}

    def test_bad_retry_limit_rejected(self):
        with pytest.raises(ValueError):
            ProcessWorkerPool(_double, retry_limit=-1)


class TestWarmReuse:
    def test_processes_survive_between_batches(self):
        with ProcessWorkerPool(_double) as pool:
            pool.run_batch(_tasks(4), jobs=2)
            first_pids = set(pool.worker_pids())
            pool.run_batch(_tasks(4), jobs=2)
            assert set(pool.worker_pids()) == first_pids
            assert pool.spawned == len(first_pids)
            assert pool.tasks_done == 8

    def test_spawn_seconds_accumulates(self):
        with ProcessWorkerPool(_double) as pool:
            pool.run_batch(_tasks(3), jobs=2)
            assert pool.spawn_seconds > 0.0

    def test_reap_idle_retires_quiet_workers(self):
        with ProcessWorkerPool(_double) as pool:
            pool.run_batch(_tasks(3), jobs=2)
            assert pool.reap_idle(idle_seconds=0.0) == pool.stats()["spawned"]
            assert pool.stats()["workers"] == 0
            # The pool stays usable: the next batch respawns.
            assert pool.run_batch(_tasks(2), jobs=1) == {"t0": 0, "t1": 2}


class TestFailures:
    def test_worker_exception_exhausts_budget(self):
        with ProcessWorkerPool(_boom, retry_limit=0) as pool:
            with pytest.raises(TaskFailure) as info:
                pool.run_batch(_tasks(1), jobs=1)
        assert info.value.attempts == 1
        assert "ValueError" in str(info.value)

    def test_transient_exception_requeues_then_succeeds(self, tmp_path):
        marker = tmp_path / "fail-once"
        marker.write_text("x")
        with ProcessWorkerPool(_fail_if_marker, retry_limit=2) as pool:
            results = pool.run_batch(
                [("t%d" % i, {"marker": str(marker), "value": i}, 1)
                 for i in range(4)],
                jobs=2,
            )
            assert results == {"t%d" % i: i for i in range(4)}
            assert pool.requeues == 1
            assert pool.crashes == 0
        assert not marker.exists()

    def test_sigkill_mid_task_requeues_and_completes(self, tmp_path):
        marker = tmp_path / "kill-once"
        marker.write_text("x")
        with ProcessWorkerPool(_kill_if_marker, retry_limit=2) as pool:
            results = pool.run_batch(
                [("t%d" % i, {"marker": str(marker), "value": i}, 1)
                 for i in range(4)],
                jobs=2,
            )
            assert results == {"t%d" % i: i for i in range(4)}
            assert pool.crashes == 1
            assert pool.requeues == 1
            # A replacement was spawned for the dead worker.
            assert pool.spawned >= 3
        assert not marker.exists()

    def test_repeated_crashes_exhaust_budget(self, tmp_path):
        # Three markers: the task's first attempt and both retries each
        # claim one and die, exhausting retry_limit=2.
        markers = []
        for i in range(3):
            marker = tmp_path / ("kill-%d" % i)
            marker.write_text("x")
            markers.append(str(marker))

        with ProcessWorkerPool(_kill_repeatedly, retry_limit=2) as pool:
            with pytest.raises(TaskFailure) as info:
                pool.run_batch(
                    [("t0", {"markers": markers, "value": 0}, 1)], jobs=1
                )
            assert pool.crashes == 3
        assert info.value.attempts == 3
        assert "died" in str(info.value)


def _kill_repeatedly(payload):
    """Die while any of the listed markers remains claimable."""
    for marker in payload["markers"]:
        if _claim(marker):
            os.kill(os.getpid(), signal.SIGKILL)
    return payload["value"]


class TestObservability:
    def test_every_task_gets_a_span_on_a_worker_lane(self):
        log = EventLog()
        with ProcessWorkerPool(_double) as pool:
            pool.run_batch(_tasks(5), jobs=2, events=log,
                           category="ltrans")
        spans = log.spans("ltrans")
        assert sorted(e.name for e in spans) == sorted(
            "t%d" % i for i in range(5)
        )
        assert {e.worker for e in spans} <= {0, 1}
        assert all(e.dur_us >= 0 for e in spans)

    def test_stats_shape(self):
        with ProcessWorkerPool(_double) as pool:
            pool.run_batch(_tasks(2), jobs=2)
            stats = pool.stats()
        assert stats["tasks_done"] == 2
        assert stats["tasks_failed"] == 0
        assert stats["start_method"] == pool.start_method
        assert stats["spawn_seconds"] > 0.0


class TestClose:
    def test_close_is_idempotent_and_final(self):
        pool = ProcessWorkerPool(_double)
        pool.run_batch(_tasks(2), jobs=2)
        pids = pool.worker_pids()
        pool.close()
        pool.close()
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)  # ESRCH: the process is gone
        with pytest.raises(RuntimeError):
            pool.run_batch(_tasks(1), jobs=1)
