"""Codec round-trip cost guard: counts, not timings.

On a build pinned to ``OFFLOAD`` with a 4-pool cache (the shape of the
benchmark's ``cold_naim_offload``), a routine body crosses the codec
only when its bytes changed and someone will read them:

(a) the loader encodes a body at registration and when it evicts one
    whose bytes differ from the repository's -- never a body that was
    only read;
(b) ``Repository.store`` is never handed the bytes it already holds;
(c) nothing is encoded or stored for a routine once its machine code
    exists;
(d) after plan replay each compiled routine is fetched at most once
    (scalar and codegen share the one visit);

and a partition worker's reply carries no IL.  Each assertion fails on
the code it replaced (every eviction encoded, 1 065 identical stores
per benchmark build, a re-offload after scalar and another after
codegen, one fetch per loop, every local body base64'd back).
"""

import pytest

import repro.hlo.driver as hlo_driver
import repro.naim.loader as loader_module
import repro.part.runner as runner_module
from repro.driver.compiler import Compiler
from repro.driver.options import CompilerOptions
from repro.hlo.options import HloOptions
from repro.linker.objects import encode_executable
from repro.llo.driver import LowLevelOptimizer
from repro.naim.compaction import compact_routine
from repro.naim.config import NaimConfig, NaimLevel
from repro.naim.loader import Loader
from repro.naim.pools import KIND_IR
from repro.naim.repository import Repository
from repro.synth import WorkloadConfig, generate


def sources():
    config = WorkloadConfig(
        "roundtrip", n_modules=10, routines_per_module=4, n_features=3,
        dispatch_count=40, input_size=16, seed=19,
    )
    return generate(config).sources


def offload_options(**kwargs):
    # Explicitly unchecked, also under ``--hlo-checked``: a checked
    # loader re-encodes every clean eviction, which is what it is for
    # and exactly what this file counts.
    return CompilerOptions(
        opt_level=4,
        naim=NaimConfig.pinned(NaimLevel.OFFLOAD, cache_pools=4),
        hlo=HloOptions(checked=False),
        **kwargs
    )


class Ledger:
    """What the loader, the repository and codegen did, in order."""

    def __init__(self, monkeypatch):
        #: ("encode" | "store" | "fetch" | "compile" | "replayed", name)
        self.events = []
        #: Evictions of a body the repository had no copy of / held
        #: other bytes for -- judged by encoding it, not by any flag.
        self.first_evictions = 0
        self.mutated_evictions = 0
        #: Set while the ledger itself reads the repository.
        self.judging = False
        events = self.events
        ledger = self

        def logged(kind, real, name_of):
            def wrapper(*args, **kwargs):
                if not ledger.judging:
                    for name in name_of(*args, **kwargs):
                        events.append((kind, name))
                return real(*args, **kwargs)
            return wrapper

        real_evict = Loader._compact_pool

        def judged_evict(loader, pool, offload):
            repository = loader.repository
            if pool.kind == KIND_IR:
                ledger.judging = True
                if not repository.contains(pool.kind, pool.name):
                    ledger.first_evictions += 1
                elif compact_routine(pool.expanded, loader.symtab) != bytes(
                    repository.fetch(pool.kind, pool.name)
                ):
                    ledger.mutated_evictions += 1
                ledger.judging = False
            return real_evict(loader, pool, offload)

        def real_replay(*args, **kwargs):
            replay(*args, **kwargs)
            events.append(("replayed", ""))

        replay = hlo_driver.replay_plan
        monkeypatch.setattr(Loader, "_compact_pool", judged_evict)
        monkeypatch.setattr(hlo_driver, "replay_plan", real_replay)
        monkeypatch.setattr(loader_module, "compact_routine", logged(
            "encode", loader_module.compact_routine,
            lambda routine, _symtab: [routine.name],
        ))
        monkeypatch.setattr(Repository, "store", logged(
            "store", Repository.store,
            lambda _repo, kind, name, _data: [name] * (kind == KIND_IR),
        ))
        monkeypatch.setattr(Repository, "fetch", logged(
            "fetch", Repository.fetch,
            lambda _repo, kind, name: [name] * (kind == KIND_IR),
        ))
        monkeypatch.setattr(Repository, "fetch_many", logged(
            "fetch", Repository.fetch_many,
            lambda _repo, keys: [n for kind, n in keys if kind == KIND_IR],
        ))
        monkeypatch.setattr(LowLevelOptimizer, "compile_routine", logged(
            "compile", LowLevelOptimizer.compile_routine,
            lambda _llo, routine, *_view: [routine.name],
        ))

    def names(self, kind):
        return [name for event, name in self.events if event == kind]


@pytest.fixture
def serial(monkeypatch, tmp_path):
    ledger = Ledger(monkeypatch)
    result = Compiler(
        offload_options(repository_dir=str(tmp_path / "repo"))
    ).build(sources())
    return ledger, result


def test_the_loader_encodes_only_new_and_mutated_bodies(serial):
    ledger, result = serial
    stats = result.hlo_result.loader.stats
    encodes = len(ledger.names("encode"))
    assert ledger.first_evictions and ledger.mutated_evictions
    assert encodes <= ledger.first_evictions + ledger.mutated_evictions
    # The bodies that were only read went back without the codec.
    assert stats.clean_evictions > 0
    assert stats.compactions + stats.clean_evictions > encodes


def test_the_repository_is_never_handed_what_it_holds(serial):
    ledger, result = serial
    io = result.hlo_result.loader.repository.io_stats()
    assert ledger.names("store")
    assert io["store_skips"] == 0


def test_nothing_is_written_back_once_a_routine_is_compiled(serial):
    ledger, result = serial
    compiled = set()
    for event, name in ledger.events:
        if event == "compile":
            compiled.add(name)
        elif event in ("encode", "store"):
            assert name not in compiled, (event, name)
    assert compiled == set(result.hlo_result.compiled_routines())
    assert result.hlo_result.loader.stats.released_spent == len(compiled)


def test_scalar_and_codegen_share_one_fetch_per_routine(serial):
    ledger, result = serial
    after_replay = ledger.events[ledger.events.index(("replayed", "")) + 1:]
    fetched = [name for event, name in after_replay if event == "fetch"]
    assert fetched
    assert len(fetched) == len(set(fetched))


def test_a_worker_reply_carries_no_il(monkeypatch):
    replies = []
    run_wire_job = runner_module.run_wire_job

    def capturing(job, store, contexts):
        ledger.events.append(("job", ""))
        reply = run_wire_job(job, store, contexts)
        replies.append(reply)
        return reply

    monkeypatch.setattr(runner_module, "run_wire_job", capturing)
    reference = Compiler(offload_options()).build(sources())
    ledger = Ledger(monkeypatch)
    parallel = Compiler(offload_options(hlo_partitions=6)).build(sources())
    assert len(replies) == parallel.ltrans_stats["partitions"] > 1
    for reply in replies:
        assert sorted(reply) == [
            "accountant", "index", "llo_stats", "loader_stats",
            "machines_b64", "pass_counts", "pass_schedule", "pass_seconds",
            "views",
        ]
    # Nor does a worker encode a body it has compiled (another job may
    # well import that routine and replay it for itself).
    compiled = set()
    for event, name in ledger.events:
        if event == "job":
            compiled = set()
        elif event == "compile":
            compiled.add(name)
        elif event == "encode":
            assert name not in compiled, name
    assert encode_executable(parallel.executable) == encode_executable(
        reference.executable
    )
