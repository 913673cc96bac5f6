"""Integration tests for the partition runner on its in-process
transport (``hlo_jobs=1`` with a partition count; the process and farm
transports have their own files).

The load-bearing property: for any jobs/partitions setting, a +O4
build's image is byte-identical to the serial build, and every folded
statistic is deterministic (independent of worker interleaving).
"""

import re

import pytest

from repro.driver.build import BuildEngine
from repro.driver.compiler import Compiler, train
from repro.driver.options import CompilerOptions
from repro.linker.objects import encode_executable
from repro.naim.config import NaimConfig, NaimLevel
from repro.naim.pools import KIND_IR, ReleasedPoolError
from repro.part import partition_unit
from repro.part.procexec import processes_supported
from repro.synth import WorkloadConfig, generate


def app_sources(seed=3, n_modules=8):
    config = WorkloadConfig(
        "part%d" % seed,
        n_modules=n_modules,
        routines_per_module=3,
        n_features=2,
        dispatch_count=40,
        input_size=16,
        seed=seed,
    )
    return generate(config).sources


def build(sources, profile_db=None, **option_kwargs):
    options = CompilerOptions(
        opt_level=4, pbo=profile_db is not None, **option_kwargs
    )
    return Compiler(options).build(sources, profile_db)


class TestByteIdentity:
    def test_jobs_do_not_change_the_image(self):
        sources = app_sources()
        reference = encode_executable(build(sources).executable)
        for jobs in (1, 2, 4):
            parallel = build(sources, hlo_jobs=jobs)
            assert encode_executable(parallel.executable) == reference

    def test_partition_count_does_not_change_the_image(self):
        sources = app_sources()
        reference = encode_executable(build(sources).executable)
        for partitions in (1, 3, 7, 16):
            parallel = build(sources, hlo_partitions=partitions)
            assert parallel.ltrans_stats["backend"] == "in-process"
            assert encode_executable(parallel.executable) == reference

    def test_identical_under_naim_offload(self):
        sources = app_sources(seed=5)
        naim = lambda: NaimConfig.pinned(NaimLevel.OFFLOAD, cache_pools=2)
        reference = encode_executable(
            build(sources, naim=naim()).executable
        )
        parallel = build(sources, naim=naim(), hlo_partitions=16)
        assert encode_executable(parallel.executable) == reference
        # Workers warmed their offloaded pools in batches.
        assert parallel.hlo_result.loader.stats.prefetches > 0

    def test_identical_with_profiles_and_selectivity(self):
        sources = app_sources(seed=9)
        profile_db = train(sources, [None])
        reference = encode_executable(
            build(sources, profile_db, selectivity_percent=60).executable
        )
        parallel = build(sources, profile_db, selectivity_percent=60,
                         hlo_partitions=12)
        assert encode_executable(parallel.executable) == reference


class TestDeterministicFolding:
    def test_stats_independent_of_interleaving(self):
        sources = app_sources(seed=13)
        first = build(sources, hlo_partitions=16)
        second = build(sources, hlo_jobs=4)
        assert (first.hlo_result.loader.stats.as_dict()
                == second.hlo_result.loader.stats.as_dict())
        assert (first.hlo_result.ctx.stats.counts
                == second.hlo_result.ctx.stats.counts)
        assert first.accountant.peak == second.accountant.peak

    def test_pass_stats_match_serial(self):
        sources = app_sources(seed=13)
        serial = build(sources)
        parallel = build(sources, hlo_partitions=16)
        assert (serial.hlo_result.ctx.stats.counts
                == parallel.hlo_result.ctx.stats.counts)
        assert repr(serial.llo_stats) == repr(parallel.llo_stats)


def _offload():
    return NaimConfig.pinned(NaimLevel.OFFLOAD, cache_pools=2)


def _incremental_rebuild(sources, **option_kwargs):
    """The result of a warm rebuild after a one-module edit: most
    modules reuse cached code, the edited one is compiled."""
    engine = BuildEngine(
        CompilerOptions(opt_level=4, **option_kwargs), incremental=True
    )
    engine.build(sources)
    edited = dict(sources)
    victim = sorted(name for name in edited if name != "main")[0]
    edited[victim] = re.sub(
        r"\* (\d+) \+", lambda m: "* %d +" % (int(m.group(1)) + 1),
        edited[victim], count=1,
    )
    result, _ = engine.build(edited)
    assert result.incr_report.reused and result.incr_report.reoptimized
    return result


SHAPES = {
    "serial": build,
    "in-process": lambda sources, **kw: build(
        sources, hlo_partitions=8, **kw
    ),
    "processes": lambda sources, **kw: build(
        sources, hlo_jobs=2, hlo_backend="processes", **kw
    ),
    "incremental": _incremental_rebuild,
}


class TestUnitAfterRun:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_the_unit_is_spent_after_codegen(self, shape):
        """Once machine code exists nothing reads a routine's IL again,
        so where NAIM is engaged no loop hands it back: the unit still
        lists every name, but no pool holds a body and no handle
        answers -- least of all with the stale pre-scalar bytes the
        repository may still hold.  A reused routine that replay does
        not read never had a pool: it is a name and nothing else."""
        if shape == "processes" and not processes_supported():
            pytest.skip("no multiprocessing here")
        hlo_result = SHAPES[shape](app_sources(), naim=_offload()).hlo_result
        unit = hlo_result.unit
        assert unit.routine_names()
        assert not [
            pool for pool in hlo_result.loader.pools()
            if pool.kind == KIND_IR
        ]
        scope = hlo_result.plan.replay_scope(hlo_result.compiled_routines())
        untouched = hlo_result.reused_routines - scope
        assert bool(untouched) == (shape == "incremental")
        released = 0
        for name in unit.routine_names():
            if unit.handle(name) is None:
                # A clone the link loader never held (its body existed
                # only in the worker that replayed it), or a reused
                # routine outside the replay scope.
                assert (name in hlo_result.clones and shape != "serial"
                        or name in untouched)
                continue
            assert name not in untouched
            with pytest.raises(ReleasedPoolError) as raised:
                unit.routine(name)
            assert raised.value.name == name
            released += 1
        # Workers' releases (clones included) fold into the link stats.
        spent = hlo_result.loader.stats.released_spent
        assert released <= spent <= len(unit.routine_names())

    def test_below_the_threshold_the_serial_unit_keeps_its_bodies(self):
        """NAIM not engaged: the link loader unloads nothing, spent or
        not (``CmoUnit.release_spent`` degrades like ``Loader.evict``)."""
        hlo_result = build(app_sources()).hlo_result
        unit = hlo_result.unit
        for name in unit.routine_names():
            assert unit.routine(name).name == name
        assert hlo_result.loader.stats.released_spent == 0

    def test_partitions_cover_the_unit(self):
        sources = app_sources()
        result = build(sources, hlo_jobs=2)
        hlo_result = result.hlo_result
        partitions = partition_unit(hlo_result, 4)
        covered = sorted(r for p in partitions for r in p.routines)
        assert covered == sorted(hlo_result.unit.routine_names())

    def test_a_body_shipped_twice_is_compacted_once(self, monkeypatch):
        """A body some partitions import and one owns is encoded once
        per run -- not once per job entry that carries it."""
        import repro.part.runner as runner

        encoded = []
        real = runner.compact_routine

        def counting(routine, symtab):
            encoded.append(routine.name)
            return real(routine, symtab)

        monkeypatch.setattr(runner, "compact_routine", counting)
        shipped = []
        real_run = runner.PartitionRunner.run

        def run(self, partitions):
            for partition in partitions:
                shipped.extend(partition.imports + partition.routines)
            return real_run(self, partitions)

        monkeypatch.setattr(runner.PartitionRunner, "run", run)
        sources = app_sources()
        parallel = build(sources, hlo_partitions=8)
        assert len(shipped) > len(set(shipped)), "nothing is shipped twice"
        assert encoded and len(encoded) == len(set(encoded))
        assert encode_executable(parallel.executable) == encode_executable(
            build(sources).executable
        )


class TestOptionsGuards:
    def test_hlo_jobs_not_in_describe(self):
        # The knob must not poison artifact-cache or incremental
        # fingerprints: output is identical for every value.
        serial = CompilerOptions(opt_level=4)
        parallel = CompilerOptions(opt_level=4, hlo_jobs=8,
                                   hlo_partitions=32)
        assert serial.describe() == parallel.describe()

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            CompilerOptions(opt_level=4, hlo_jobs=0)
        with pytest.raises(ValueError):
            CompilerOptions(opt_level=4, hlo_partitions=0)

    def test_partitioned_predicate(self):
        assert not CompilerOptions(opt_level=4).use_partitioned_hlo
        assert CompilerOptions(opt_level=4, hlo_jobs=2).use_partitioned_hlo
        assert CompilerOptions(
            opt_level=4, hlo_partitions=8
        ).use_partitioned_hlo
