"""AdmissionGate: the coordinator's concurrency and queue bounds."""

import threading
import time

import pytest

from repro.farm.coordinator import AdmissionGate


class TestBounds:
    def test_admits_up_to_max_sessions(self):
        gate = AdmissionGate(max_sessions=3, queue_depth=0)
        waits = [gate.try_acquire() for _ in range(3)]
        assert all(w is not None for w in waits)
        assert gate.active == 3

    def test_rejects_past_capacity(self):
        gate = AdmissionGate(max_sessions=1, queue_depth=0)
        assert gate.try_acquire() is not None
        assert gate.try_acquire() is None
        assert gate.rejected == 1

    def test_release_reopens_slot(self):
        gate = AdmissionGate(max_sessions=1, queue_depth=0)
        gate.try_acquire()
        gate.release()
        assert gate.try_acquire() is not None

    def test_queue_admits_after_release(self):
        gate = AdmissionGate(max_sessions=1, queue_depth=1)
        gate.try_acquire()
        admitted = []

        def queued():
            admitted.append(gate.try_acquire(timeout=10.0))

        thread = threading.Thread(target=queued)
        thread.start()
        while gate.waiting == 0:  # until the waiter is parked
            time.sleep(0.005)
        gate.release()
        thread.join(timeout=10.0)
        assert admitted and admitted[0] is not None
        assert admitted[0] > 0  # queue wait was measured

    def test_full_queue_rejects_immediately(self):
        gate = AdmissionGate(max_sessions=1, queue_depth=1)
        gate.try_acquire()
        waiter = threading.Thread(
            target=lambda: gate.try_acquire(timeout=10.0)
        )
        waiter.start()
        while gate.waiting == 0:
            time.sleep(0.005)
        started = time.monotonic()
        assert gate.try_acquire() is None  # queue full: no blocking
        assert time.monotonic() - started < 1.0
        gate.release()
        waiter.join(timeout=10.0)

    def test_queue_timeout_rejects(self):
        gate = AdmissionGate(max_sessions=1, queue_depth=1)
        gate.try_acquire()
        assert gate.try_acquire(timeout=0.05) is None
        assert gate.rejected == 1

    def test_unbalanced_release_raises(self):
        with pytest.raises(RuntimeError):
            AdmissionGate().release()

    @pytest.mark.parametrize("max_sessions, queue_depth", [
        (0, 1), (-1, 0),
    ])
    def test_bad_max_sessions_rejected(self, max_sessions, queue_depth):
        with pytest.raises(ValueError):
            AdmissionGate(max_sessions, queue_depth)

    def test_bad_queue_depth_rejected(self):
        with pytest.raises(ValueError):
            AdmissionGate(1, -1)


class TestBoundaries:
    def test_queue_exactly_full_last_slot_admits_then_rejects(self):
        # queue_depth=2: the boundary is the *third* waiter -- the
        # first two park, the third is turned away without blocking.
        gate = AdmissionGate(max_sessions=1, queue_depth=2)
        assert gate.try_acquire() is not None
        waiters = [threading.Thread(
            target=lambda: gate.try_acquire(timeout=10.0)
        ) for _ in range(2)]
        for waiter in waiters:
            waiter.start()
        while gate.waiting < 2:
            time.sleep(0.005)
        assert gate.waiting == 2  # exactly full, not over
        assert gate.try_acquire() is None
        assert gate.rejected == 1
        for _ in range(2):  # each release hands the slot to a waiter
            admitted_before = gate.admitted
            gate.release()
            while gate.admitted == admitted_before:
                time.sleep(0.005)
        for waiter in waiters:
            waiter.join(timeout=10.0)
        gate.release()
        assert gate.admitted == 3

    def test_zero_queue_boundary_is_max_sessions(self):
        gate = AdmissionGate(max_sessions=2, queue_depth=0)
        assert gate.try_acquire() is not None
        assert gate.try_acquire() is not None  # exactly at the cap
        assert gate.try_acquire() is None  # one past it
        gate.release()
        assert gate.try_acquire() is not None  # the freed slot readmits

    def test_admission_during_drain_takes_the_freed_slot(self):
        # Sessions-full while one is draining: a request arriving in
        # the release window must be admitted (parked then woken), not
        # bounced off the momentarily-full gate.
        gate = AdmissionGate(max_sessions=2, queue_depth=2)
        gate.try_acquire()
        gate.try_acquire()
        admitted = []

        def arrival():
            admitted.append(gate.try_acquire(timeout=10.0))

        thread = threading.Thread(target=arrival)
        thread.start()
        while gate.waiting == 0:
            time.sleep(0.005)
        assert gate.active == 2  # still full: the arrival is parked
        gate.release()  # the draining session finishes
        thread.join(timeout=10.0)
        assert admitted and admitted[0] is not None
        assert gate.active == 2  # the freed slot was handed over
        assert gate.rejected == 0

    def test_waiter_timeout_then_release_leaves_gate_consistent(self):
        # A waiter that gives up must not leak queue accounting: the
        # next release wakes nobody and the slot is re-acquirable.
        gate = AdmissionGate(max_sessions=1, queue_depth=1)
        gate.try_acquire()
        assert gate.try_acquire(timeout=0.05) is None
        assert gate.waiting == 0
        gate.release()
        assert gate.try_acquire() is not None
        assert gate.stats()["active"] == 1


class TestAccounting:
    def test_stats_shape(self):
        gate = AdmissionGate(max_sessions=2, queue_depth=3)
        gate.try_acquire()
        stats = gate.stats()
        assert stats["active"] == 1
        assert stats["admitted"] == 1
        assert stats["max_sessions"] == 2
        assert stats["queue_depth"] == 3

    def test_peak_active_tracks_high_water(self):
        gate = AdmissionGate(max_sessions=4, queue_depth=0)
        for _ in range(3):
            gate.try_acquire()
        for _ in range(3):
            gate.release()
        gate.try_acquire()
        assert gate.stats()["peak_active"] == 3

    def test_bound_holds_under_contention(self):
        gate = AdmissionGate(max_sessions=2, queue_depth=8)
        peak = []
        lock = threading.Lock()
        running = [0]

        def worker():
            wait = gate.try_acquire(timeout=10.0)
            if wait is None:
                return
            with lock:
                running[0] += 1
                peak.append(running[0])
            time.sleep(0.01)
            with lock:
                running[0] -= 1
            gate.release()

        threads = [threading.Thread(target=worker) for _ in range(10)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20.0)
        assert max(peak) <= 2
        assert gate.admitted == 10  # queue depth 8 covers the burst
