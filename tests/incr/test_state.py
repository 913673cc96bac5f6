"""Unit tests for persistent incremental-CMO state."""

from __future__ import annotations

import json

from repro.frontend import compile_source
from repro.incr.state import IncrementalState, module_blob_key
from repro.incr.summary import SUMMARY_FORMAT, ModuleSummary
from repro.llo.driver import LowLevelOptimizer
from repro.sched.artifacts import PIPELINE_EPOCH

MODULES = {
    "alpha": "func one() { return 1; }",
    "beta": "func two() { return 2; }\nfunc main() { return one() + two(); }",
}


def _summaries():
    return [
        ModuleSummary.from_module(compile_source(text, name))
        for name, text in MODULES.items()
    ]


def _machines():
    llo = LowLevelOptimizer()
    return [
        llo.compile_routine(compile_source(MODULES["alpha"], "alpha")
                            .routines["one"])
    ]


#: Each routine's module, in unit order, and its reuse key.
ROUTINE_MODULE = {"one": "alpha", "two": "beta", "main": "beta"}
KEYS = {"one": "key-one", "two": "key-two", "main": "key-main"}


def _committed_state(directory=None):
    """A state with one committed link: summaries, keys, one blob per
    module (alpha's holds ``one``, beta's nothing)."""
    state = IncrementalState(directory=directory)
    session = state.begin_link(_summaries(), "opts-fp")
    assert session.first_build
    assert session.decide_reuse(KEYS, ROUTINE_MODULE) == set()
    session.fresh_machines = {"alpha": _machines(), "beta": []}
    state.commit(session)
    return state


class TestSessionLifecycle:
    def test_changed_modules_are_the_moved_summaries(self):
        state = IncrementalState()
        session = state.begin_link(_summaries(), "opts-fp")
        assert session.first_build
        assert session.changed_modules == sorted(MODULES)
        state = _committed_state()
        session = state.begin_link(_summaries(), "opts-fp")
        assert not session.first_build
        assert session.changed_modules == []
        edited = [
            ModuleSummary.from_module(compile_source(text, name))
            for name, text in (
                ("alpha", MODULES["alpha"].replace("1", "9")),
                ("beta", MODULES["beta"]),
            )
        ]
        assert state.begin_link(edited, "opts-fp").changed_modules == [
            "alpha"
        ]

    def test_options_change_forces_first_build(self):
        state = _committed_state()
        session = state.begin_link(_summaries(), "other-fp")
        assert session.first_build

    def test_report_contents(self):
        state = _committed_state()
        session = state.begin_link(_summaries(), "opts-fp")
        # ``two`` has a new key; ``main``'s is committed, but beta's
        # blob holds no routine to reuse.
        reused = session.decide_reuse(dict(KEYS, two="key-two-new"),
                                      ROUTINE_MODULE)
        assert reused == {"one"}
        assert session.reoptimized_modules == {"beta"}
        session.fresh_machines = {"beta": []}
        report = state.commit(session)
        assert report.reused == ["alpha"]
        assert report.reoptimized == ["beta"]
        assert report.compiled_routines == ["main", "two"]
        assert not report.first_build
        assert report.reuse_fraction() == 0.5


class TestMachineBlobs:
    def test_roundtrip(self):
        state = IncrementalState()
        machines = _machines()
        state.store_machines("key-1", machines)
        loaded, reason = state.load_machines("key-1")
        assert reason is None
        assert [m.name for m in loaded] == [m.name for m in machines]

    def test_missing_key(self):
        assert IncrementalState().load_machines("absent") == (
            None, "missing"
        )

    def test_corrupt_blob_degrades_to_miss(self):
        state = IncrementalState()
        state.repository.store("mach", "key-bad", b"not a machine blob")
        assert state.load_machines("key-bad") == (None, "corrupt")
        # And the corrupt blob is discarded, not retried forever.
        assert not state.repository.contains("mach", "key-bad")
        assert state.load_machines("key-bad") == (None, "missing")

    def test_resident_routines_never_outlive_the_blob(self):
        state = IncrementalState()
        state.store_machines("key-1", _machines())
        state.repository.discard("mach", "key-1")
        assert state.load_machines("key-1") == (None, "missing")
        # Nor does a later blob under the same key get the old list.
        state.repository.store("mach", "key-1", b"not a machine blob")
        assert state.load_machines("key-1") == (None, "corrupt")

    def test_commit_prunes_unreferenced_blobs(self):
        state = _committed_state()
        state.store_machines("stale-key", _machines())
        session = state.begin_link(_summaries(), "opts-fp")
        assert session.decide_reuse(KEYS, ROUTINE_MODULE) == {"one"}
        state.commit(session)
        assert state.load_machines("stale-key") == (None, "missing")
        assert state.load_machines(state.module_keys["alpha"])[0] is not None


class TestPersistence:
    def test_disk_roundtrip(self, tmp_path):
        directory = str(tmp_path / "incr")
        _committed_state(directory=directory).close()
        reloaded = IncrementalState(directory=directory)
        assert set(reloaded.summaries) == set(MODULES)
        assert reloaded.routine_keys == {
            "alpha": {"one": "key-one"},
            "beta": {"two": "key-two", "main": "key-main"},
        }
        assert reloaded.module_keys == {
            name: module_blob_key(name, keys)
            for name, keys in reloaded.routine_keys.items()
        }
        assert reloaded.options_fp == "opts-fp"
        assert reloaded.load_machines(
            reloaded.module_keys["alpha"]
        )[0] is not None

    def test_index_without_fingerprints_stays_warm(self, tmp_path):
        """What the index looked like before fingerprints were kept
        beside the summaries: same epoch, same format, still warm."""
        directory = str(tmp_path / "incr")
        state = _committed_state(directory=directory)
        kept = dict(state.summary_fingerprints)
        assert kept == {
            summary.module_name: summary.fingerprint()
            for summary in _summaries()
        }
        index = json.loads(
            state.repository.fetch("incr", "index").decode("utf-8")
        )
        del index["summary_fingerprints"]
        state.repository.store(
            "incr", "index", json.dumps(index).encode("utf-8")
        )
        state.close()
        reloaded = IncrementalState(directory=directory)
        assert reloaded.summary_fingerprints == kept
        session = reloaded.begin_link(_summaries(), "opts-fp")
        assert not session.first_build
        assert session.changed_modules == []

    def test_epoch_mismatch_invalidates(self, tmp_path):
        directory = str(tmp_path / "incr")
        state = _committed_state(directory=directory)
        index = json.loads(
            state.repository.fetch("incr", "index").decode("utf-8")
        )
        index["epoch"] = PIPELINE_EPOCH + "-older"
        state.repository.store(
            "incr", "index", json.dumps(index).encode("utf-8")
        )
        state.close()
        reloaded = IncrementalState(directory=directory)
        assert reloaded.summaries == {}
        assert reloaded.module_keys == {}

    def test_format_mismatch_invalidates(self, tmp_path):
        directory = str(tmp_path / "incr")
        state = _committed_state(directory=directory)
        index = json.loads(
            state.repository.fetch("incr", "index").decode("utf-8")
        )
        index["format"] = SUMMARY_FORMAT + 1
        state.repository.store(
            "incr", "index", json.dumps(index).encode("utf-8")
        )
        state.close()
        assert IncrementalState(directory=directory).summaries == {}

    def test_garbage_index_treated_as_first_build(self, tmp_path):
        directory = str(tmp_path / "incr")
        state = _committed_state(directory=directory)
        state.repository.store("incr", "index", b"{truncated")
        state.close()
        reloaded = IncrementalState(directory=directory)
        assert reloaded.summaries == {}
        assert reloaded.begin_link(_summaries(), "opts-fp").first_build
