"""Partition serialization: the wire format, verified in-process.

The in-process transport runs every encode/decode/execute step of real
process or farm dispatch, minus the pipes and sockets -- and the
resulting images must be byte-identical to the serial build's.
"""

import json
import threading

import pytest

from repro.driver.compiler import Compiler, train
from repro.driver.options import CompilerOptions
from repro.linker.objects import encode_executable
from repro.llo.driver import LowLevelOptimizer
from repro.naim.compaction import CompactionError
from repro.naim.config import NaimConfig, NaimLevel
from repro.part import Partition, wire
from repro.part.runner import InProcessTransport, RemoteDispatchError
from repro.part.wire import (
    WIRE_VERSION,
    WireError,
    decode_outcome,
    decode_shared_context,
)
from repro.synth import WorkloadConfig, generate


def app_sources(seed=21, n_modules=6):
    config = WorkloadConfig(
        "wire%d" % seed,
        n_modules=n_modules,
        routines_per_module=3,
        n_features=2,
        dispatch_count=40,
        input_size=16,
        seed=seed,
    )
    return generate(config).sources


class ReversedTransport(InProcessTransport):
    """Outcomes in any order are fine: the runner folds by index."""

    def __init__(self):
        super().__init__()
        self.outcomes = []

    def ready(self):
        return True

    def dispatch(self, jobs):
        self.outcomes = list(reversed(super().dispatch(jobs)))
        return self.outcomes


def build(sources, profile_db=None, dispatcher=None, **option_kwargs):
    options = CompilerOptions(
        opt_level=4, pbo=profile_db is not None, **option_kwargs
    )
    compiler = Compiler(options)
    if dispatcher is not None:
        compiler.partition_dispatcher = dispatcher
    return compiler.build(sources, profile_db)


class TestLoopbackByteIdentity:
    def test_outcomes_in_any_order_match_serial(self):
        sources = app_sources(seed=22)
        reference = encode_executable(build(sources).executable)
        dispatcher = ReversedTransport()
        remote = build(sources, dispatcher=dispatcher,
                       hlo_jobs=2, hlo_partitions=5)
        assert encode_executable(remote.executable) == reference
        assert len(dispatcher.outcomes) == 5

    def test_identical_with_profiles_and_selectivity(self):
        sources = app_sources(seed=23)
        profile_db = train(sources, [None])
        reference = encode_executable(
            build(sources, profile_db, hlo_jobs=2,
                  selectivity_percent=60).executable
        )
        remote = build(sources, profile_db,
                       dispatcher=ReversedTransport(),
                       hlo_jobs=2, selectivity_percent=60)
        assert encode_executable(remote.executable) == reference


class TestSharedContext:
    def _encode(self, seed=25):
        sources = app_sources(seed=seed)
        dispatcher = ReversedTransport()
        build(sources, dispatcher=dispatcher, hlo_jobs=2)
        # The context blob the build published:
        for blob in dispatcher.blobs.values():
            try:
                payload = json.loads(blob.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                continue
            if isinstance(payload, dict) and payload.get("wire"):
                return blob
        raise AssertionError("no shared context published")

    def test_warm_reencode_is_byte_identical(self):
        # Same program, two builds -> the same canonical context blob,
        # which is what lets the CAS deduplicate it farm-wide.
        assert self._encode() == self._encode()

    def test_roundtrip_preserves_symtab_and_options(self):
        blob = self._encode()
        shared = decode_shared_context(blob)
        payload = json.loads(blob.decode("utf-8"))
        assert payload["wire"] == WIRE_VERSION
        assert list(shared.symtab._name_by_pid) == \
            payload["symtab"]["pid_order"]
        assert shared.llo_options.opt_level == \
            payload["llo_options"]["opt_level"]
        assert shared.scalar_set == frozenset(payload["scalar"])

    def test_fresh_views_are_independent(self):
        shared = decode_shared_context(self._encode())
        first = shared.fresh_views()
        second = shared.fresh_views()
        assert first is not second
        for name, view in first.items():
            assert view.block_counts == second[name].block_counts
            assert view is not second[name]

    def test_version_skew_rejected(self):
        payload = json.loads(self._encode())
        payload["wire"] = WIRE_VERSION + 1
        with pytest.raises(WireError, match="version"):
            decode_shared_context(json.dumps(payload).encode())

    @pytest.mark.parametrize("data", [b"\xff\xfe", b"[1, 2]", b"junk"])
    def test_garbage_rejected(self, data):
        with pytest.raises(WireError):
            decode_shared_context(data)


class TestRunnerContract:
    def test_missing_outcome_raises(self):
        sources = app_sources(seed=27)

        class DroppyTransport(ReversedTransport):
            def dispatch(self, jobs):
                return super().dispatch(jobs)[1:]  # lose one outcome

        with pytest.raises(RemoteDispatchError, match="no outcome"):
            build(sources, dispatcher=DroppyTransport(), hlo_jobs=2)

    @pytest.mark.parametrize("damage", [
        lambda reply: reply.pop("machines_b64"),
        lambda reply: reply.pop("index"),
        lambda reply: reply.update(machines_b64="not base64!"),
        lambda reply: reply.update(machines_b64="AAAA"),
    ])
    def test_garbage_outcome_rejected(self, damage):
        dispatcher = ReversedTransport()
        build(app_sources(seed=26), dispatcher=dispatcher,
              hlo_jobs=2, hlo_partitions=2)
        reply = dict(dispatcher.outcomes[0])
        partition = Partition(reply["index"], [], [], 1)
        decode_outcome(partition, reply)  # intact: accepted
        damage(reply)
        with pytest.raises(WireError,
                           match="partition %d" % partition.index):
            decode_outcome(partition, reply)

    def test_an_older_workers_reply_still_decodes(self):
        """A worker sends no IL back (tests/naim/
        test_roundtrip_cost_guard.py).  That did not move
        ``WIRE_VERSION``: the context blob is what the version guards,
        and a coordinator that meets an older worker's reply (final IL
        under ``"returned"``) reads the machine code and statistics and
        leaves the IL alone -- a mixed farm works."""
        dispatcher = ReversedTransport()
        build(app_sources(seed=26), dispatcher=dispatcher,
              hlo_jobs=2, hlo_partitions=2)
        reply = dict(dispatcher.outcomes[0])
        assert "returned" not in reply
        partition = Partition(reply["index"], [], [], 1)
        new = decode_outcome(partition, reply)
        old = decode_outcome(
            partition, dict(reply, returned=[["f", "not even base64"]])
        )
        assert sorted(old.machines) == sorted(new.machines)
        assert old.loader_stats.as_dict() == new.loader_stats.as_dict()

    def test_a_reply_without_the_pass_schedule_still_decodes(self):
        """Executions, skips and capped routines ride in an optional
        key: a worker that predates the scheduled pipeline sends none,
        and the rest of its statistics fold as before.  The key never
        moved ``WIRE_VERSION``: v4 is the NAIM field list of the shared
        context, which replies do not carry."""
        assert WIRE_VERSION == 4
        dispatcher = ReversedTransport()
        result = build(app_sources(seed=26), dispatcher=dispatcher,
                       hlo_jobs=2, hlo_partitions=2)
        reply = dict(dispatcher.outcomes[0])
        partition = Partition(reply["index"], [], [], 1)
        new = decode_outcome(partition, reply).pass_stats
        assert sum(new.runs.values()) > 0 and sum(new.skips.values()) > 0
        old = decode_outcome(
            partition,
            {k: v for k, v in reply.items() if k != "pass_schedule"},
        ).pass_stats
        assert (old.runs, old.skips, old.capped) == ({}, {}, [])
        assert old.counts == new.counts and old.seconds == new.seconds
        # The link side sums what every partition reported.
        folded = result.hlo_result.ctx.stats
        assert sum(folded.runs.values()) == sum(
            sum(outcome["pass_schedule"]["runs"].values())
            for outcome in dispatcher.outcomes
        )


class CorruptingTransport(ReversedTransport):
    """Overwrites the first partition's first shipped body blob."""

    def dispatch(self, jobs):
        job = min(jobs, key=lambda job: job["index"])
        entry = next(entry for entry in job["routines"] if "pool" in entry)
        self.blobs[entry["pool"]] = b"\xff" * 8
        return super().dispatch(jobs)


def live_prefetch_threads():
    return {thread for thread in threading.enumerate()
            if thread.name == "naim-prefetch" and thread.is_alive()}


class FailingCodegen(LowLevelOptimizer):
    """Fails the first routine compiled while a prefetch thread that
    was not running at ``before`` is alive."""

    before = frozenset()

    def compile_routine(self, routine, view=None):
        if live_prefetch_threads() - self.before:
            raise RuntimeError("codegen failed")
        return super().compile_routine(routine, view)


class TestFailedJob:
    """A failed job raises its error and leaves no prefetch thread
    behind: a farm or pool worker serves on after a failed job, and a
    parked thread would keep the job's repository alive."""

    def test_a_damaged_body_stops_its_prefetch_thread(self):
        before = live_prefetch_threads()
        with pytest.raises(CompactionError):
            build(app_sources(seed=28), dispatcher=CorruptingTransport(),
                  hlo_jobs=2, hlo_partitions=3)
        assert live_prefetch_threads() <= before

    def test_a_failed_codegen_stops_its_prefetch_thread(self, monkeypatch):
        before = live_prefetch_threads()
        monkeypatch.setattr(FailingCodegen, "before", before)
        monkeypatch.setattr(wire, "LowLevelOptimizer", FailingCodegen)
        with pytest.raises(RuntimeError, match="codegen failed"):
            build(app_sources(seed=28), dispatcher=ReversedTransport(),
                  hlo_jobs=2, hlo_partitions=3,
                  naim=NaimConfig.pinned(NaimLevel.OFFLOAD))
        assert live_prefetch_threads() <= before
