"""Unit tests for the loader's background prefetch pipeline."""

import threading
import time

import pytest

from repro.naim.prefetch import PrefetchPipeline
from repro.naim.repository import Repository


def _decode(kind, data):
    return ("decoded", kind, data)


def _repo_with(entries):
    repo = Repository(in_memory=True)
    for (kind, name), data in entries.items():
        repo.store(kind, name, data)
    return repo


class TestPipeline:
    def test_request_take_roundtrip(self):
        repo = _repo_with({("ir", "a"): b"aa", ("ir", "b"): b"bbb"})
        pipe = PrefetchPipeline(repo, _decode)
        assert pipe.request([("ir", "a"), ("ir", "b")]) == 2
        assert pipe.wait(timeout=10)
        assert pipe.staged() == 2
        assert pipe.staged_raw_bytes() == 5
        assert pipe.take(("ir", "a")) == ("decoded", "ir", b"aa")
        assert pipe.staged() == 1
        assert pipe.staged_raw_bytes() == 3
        pipe.close()

    def test_a_request_of_seventy_pools_is_fetched_whole(self):
        keys = [("ir", "r%02d" % index) for index in range(70)]
        repo = _repo_with({key: key[1].encode() for key in keys})
        pipe = PrefetchPipeline(repo, _decode)
        assert pipe.request(keys) == 70
        assert pipe.wait(timeout=10)
        assert pipe.staged() == 70
        assert pipe.pending() == 0
        assert pipe.take(keys[-1], timeout=1.5) == (
            "decoded", "ir", keys[-1][1].encode()
        )
        pipe.close()

    def test_duplicate_requests_queue_once(self):
        repo = _repo_with({("ir", "a"): b"aa"})
        pipe = PrefetchPipeline(repo, _decode)
        assert pipe.request([("ir", "a")]) == 1
        assert pipe.wait(timeout=10)
        # Staged: a re-request of the same key is free.
        assert pipe.request([("ir", "a")]) == 0
        pipe.close()

    def test_take_blocks_for_inflight_key(self):
        gate = threading.Event()
        repo = _repo_with({("ir", "slow"): b"payload"})

        def slow_decode(kind, data):
            gate.wait(5)
            return ("decoded", data)

        pipe = PrefetchPipeline(repo, slow_decode)
        pipe.request([("ir", "slow")])
        time.sleep(0.05)  # let the fetch start
        gate.set()
        assert pipe.take(("ir", "slow")) == ("decoded", b"payload")
        pipe.close()

    def test_missing_key_returns_none(self):
        repo = _repo_with({})
        pipe = PrefetchPipeline(repo, _decode)
        pipe.request([("ir", "ghost")])
        assert pipe.wait(timeout=10)
        assert pipe.take(("ir", "ghost")) is None  # sync fallback signal
        pipe.close()

    def test_decode_failure_falls_back(self):
        repo = _repo_with({("ir", "bad"): b"payload"})

        def bad_decode(kind, data):
            raise ValueError("broken pool")

        pipe = PrefetchPipeline(repo, bad_decode)
        pipe.request([("ir", "bad")])
        assert pipe.wait(timeout=10)
        assert pipe.take(("ir", "bad")) is None
        assert pipe.decode_failures == 1
        pipe.close()

    def test_discard_forgets_staged_object(self):
        repo = _repo_with({("ir", "a"): b"aa"})
        pipe = PrefetchPipeline(repo, _decode)
        pipe.request([("ir", "a")])
        assert pipe.wait(timeout=10)
        pipe.discard(("ir", "a"))
        assert pipe.take(("ir", "a")) is None
        pipe.close()

    def test_close_is_restartable(self):
        repo = _repo_with({("ir", "a"): b"aa", ("ir", "b"): b"bb"})
        pipe = PrefetchPipeline(repo, _decode)
        pipe.request([("ir", "a")])
        assert pipe.wait(timeout=10)
        pipe.close()
        # Staged survives close; new requests restart the thread.
        assert pipe.take(("ir", "a")) == ("decoded", "ir", b"aa")
        pipe.request([("ir", "b")])
        assert pipe.wait(timeout=10)
        assert pipe.take(("ir", "b")) == ("decoded", "ir", b"bb")
        pipe.close()

    def test_windowed_requests_batch(self):
        entries = {("ir", "r%02d" % i): b"x" * (i + 1) for i in range(12)}
        repo = _repo_with(entries)
        pipe = PrefetchPipeline(repo, _decode)
        keys = sorted(entries)
        for i in range(len(keys)):
            pipe.request(keys[i:i + 2])  # sliding window, overlap-heavy
        assert pipe.wait(timeout=10)
        for key in keys:
            assert pipe.take(key) is not None
        assert pipe.fetched == len(keys)
        pipe.close()
