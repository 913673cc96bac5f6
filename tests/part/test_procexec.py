"""Integration tests for the local process LTRANS transport.

For every backend, jobs and partitions setting the +O4 image is
byte-identical to the serial build (the image/stats/span comparison
across all three transports lives in tests/farm/test_farm.py, next to
the farm fixture).  On top of that the process transport must clamp
oversubscribed job counts (announcing it once on the event log),
survive a worker SIGKILLed mid-partition, reuse an injected persistent
pool the way the coordinator's warm state does, and say so when it was
asked for but cannot run.
"""

import pytest

from repro.driver.compiler import Compiler
from repro.driver.options import CompilerOptions
from repro.linker.objects import encode_executable
from repro.naim.config import NaimConfig, NaimLevel
from repro.part.procexec import (
    KILL_MARKER_ENV,
    processes_supported,
    run_partition_job,
)
from repro.sched.events import EventLog
from repro.sched.procpool import ProcessWorkerPool, cpu_count
from repro.synth import WorkloadConfig, generate

pytestmark = pytest.mark.skipif(
    not processes_supported(), reason="no multiprocessing here"
)


def app_sources(seed=41, n_modules=8):
    config = WorkloadConfig(
        "proc%d" % seed,
        n_modules=n_modules,
        routines_per_module=3,
        n_features=2,
        dispatch_count=40,
        input_size=16,
        seed=seed,
    )
    return generate(config).sources


def build(sources, events=None, **option_kwargs):
    options = CompilerOptions(opt_level=4, **option_kwargs)
    return Compiler(options).build(sources, events=events)


class TestByteIdentity:
    def test_partition_sweep(self):
        sources = app_sources(seed=42)
        reference = encode_executable(build(sources).executable)
        for partitions in (1, 3, 7):
            parallel = build(sources, hlo_jobs=2,
                             hlo_partitions=partitions,
                             hlo_backend="processes")
            assert encode_executable(parallel.executable) == reference

    def test_identical_under_naim_offload(self):
        sources = app_sources(seed=43)
        naim = lambda: NaimConfig.pinned(NaimLevel.OFFLOAD, cache_pools=2)
        reference = encode_executable(
            build(sources, naim=naim()).executable
        )
        parallel = build(sources, naim=naim(), hlo_jobs=2,
                         hlo_backend="processes")
        assert encode_executable(parallel.executable) == reference

    def test_folded_peak_is_deterministic_and_transport_blind(self):
        # Every transport folds isolated per-partition accountants, so
        # for one partitioning the modeled peak is the same number
        # whoever ran the partitions, run after run.
        sources = app_sources(seed=44)
        in_process = build(sources, hlo_jobs=1, hlo_partitions=8)
        processes = build(sources, hlo_jobs=2, hlo_partitions=8,
                          hlo_backend="processes")
        again = build(sources, hlo_jobs=2, hlo_partitions=8,
                      hlo_backend="processes")
        assert (in_process.accountant.peak == processes.accountant.peak
                == again.accountant.peak)


class TestBackendSelection:
    def test_stats_report_the_backend(self):
        sources = app_sources(seed=45)
        processes = build(sources, hlo_jobs=2, hlo_backend="processes")
        assert processes.ltrans_stats["backend"] == "processes"
        assert processes.ltrans_stats["blob_bytes"] > 0
        assert processes.ltrans_stats["workers"] >= 1
        in_process = build(sources, hlo_jobs=1, hlo_partitions=4)
        assert in_process.ltrans_stats["backend"] == "in-process"
        assert "blob_bytes" not in in_process.ltrans_stats

    def test_auto_resolves_from_effective_jobs(self):
        sources = app_sources(seed=45)
        result = build(sources, hlo_jobs=2, hlo_backend="auto")
        expected = "processes" if cpu_count() > 1 else "in-process"
        assert result.ltrans_stats["backend"] == expected
        # One effective worker: processes cannot help.
        clamped = build(sources, hlo_jobs=4, hlo_partitions=1)
        assert clamped.ltrans_stats["backend"] == "in-process"

    def test_explicit_processes_without_support_falls_back_loudly(
        self, monkeypatch
    ):
        monkeypatch.setattr("repro.part.procexec.processes_supported",
                            lambda: False)
        sources = app_sources(seed=45)
        reference = encode_executable(build(sources).executable)
        log = EventLog()
        result = build(sources, events=log, hlo_jobs=2,
                       hlo_partitions=4, hlo_backend="processes")
        assert encode_executable(result.executable) == reference
        assert result.ltrans_stats["backend"] == "in-process"
        fallbacks = [e for e in log.events
                     if e.name == "ltrans-backend-fallback"]
        assert len(fallbacks) == 1
        assert fallbacks[0].args["requested"] == "processes"
        assert fallbacks[0].args["effective"] == "in-process"
        assert fallbacks[0].args["reason"]
        # "auto" choosing the link process is not a fallback.
        quiet = EventLog()
        build(sources, events=quiet, hlo_jobs=2, hlo_partitions=4)
        assert not [e for e in quiet.events
                    if e.name == "ltrans-backend-fallback"]

    def test_serial_build_has_no_ltrans_stats(self):
        assert build(app_sources(seed=45)).ltrans_stats is None

    @pytest.mark.parametrize("backend", ["fibers", "threads"])
    def test_invalid_backend_rejected(self, backend):
        with pytest.raises(ValueError, match="hlo_backend"):
            CompilerOptions(opt_level=4, hlo_backend=backend)

    def test_backend_stays_out_of_describe(self):
        # Like hlo_jobs: an execution knob, not an output fingerprint.
        assert (CompilerOptions(opt_level=4).describe()
                == CompilerOptions(opt_level=4, hlo_jobs=4,
                                   hlo_backend="processes").describe())


class TestClamping:
    def test_oversubscribed_jobs_clamped_and_logged_once(self):
        log = EventLog()
        sources = app_sources(seed=46)
        result = build(sources, events=log, hlo_jobs=64,
                       hlo_partitions=4, hlo_backend="processes")
        clamps = [e for e in log.events if e.name == "hlo-jobs-clamped"]
        assert len(clamps) == 1
        args = clamps[0].args
        assert args["requested"] == 64
        assert args["effective"] <= min(4, cpu_count())
        assert result.ltrans_stats["effective_jobs"] == args["effective"]

    def test_matched_jobs_not_logged(self):
        log = EventLog()
        build(app_sources(seed=46), events=log, hlo_jobs=1,
              hlo_partitions=2, hlo_backend="processes")
        assert not [e for e in log.events
                    if e.name == "hlo-jobs-clamped"]

    def test_span_counts_match_in_process_transport(self):
        # One "ltrans" span per partition on both local transports, so
        # the printed "hlo-jobs: N workers, M partitions" line agrees.
        sources = app_sources(seed=46)
        local_log, process_log = EventLog(), EventLog()
        build(sources, events=local_log, hlo_jobs=1, hlo_partitions=4)
        build(sources, events=process_log, hlo_jobs=2, hlo_partitions=4,
              hlo_backend="processes")
        assert (len(process_log.spans("ltrans"))
                == len(local_log.spans("ltrans")) == 4)


class TestCrashRecovery:
    def test_sigkilled_worker_requeues_and_image_is_identical(
        self, tmp_path, monkeypatch
    ):
        sources = app_sources(seed=47)
        reference = encode_executable(build(sources).executable)
        marker = tmp_path / "kill-one-worker"
        marker.write_text("x")
        monkeypatch.setenv(KILL_MARKER_ENV, str(marker))
        result = build(sources, hlo_jobs=2, hlo_partitions=4,
                       hlo_backend="processes")
        assert encode_executable(result.executable) == reference
        assert result.ltrans_stats["crashes"] == 1
        assert result.ltrans_stats["requeues"] == 1
        assert not marker.exists()  # exactly one worker claimed it


class TestPersistentPool:
    def test_injected_pool_survives_builds_and_stays_identical(self):
        sources = app_sources(seed=48)
        reference = encode_executable(build(sources).executable)
        with ProcessWorkerPool(run_partition_job) as pool:
            for _ in range(2):
                compiler = Compiler(CompilerOptions(
                    opt_level=4, hlo_jobs=2, hlo_partitions=4,
                    hlo_backend="processes",
                ))
                compiler.process_pool = pool
                result = compiler.build(sources)
                assert encode_executable(result.executable) == reference
            assert pool.tasks_done == 8  # 4 partitions x 2 builds
            # Warm second build: no fresh spawns beyond the first.
            assert pool.spawned == len(pool.worker_pids())

    def test_ephemeral_pool_is_drained(self):
        sources = app_sources(seed=48)
        result = build(sources, hlo_jobs=2, hlo_backend="processes")
        # Nothing to assert on the pool object (it is gone); the stats
        # prove the run happened in workers that have been reaped.
        assert result.ltrans_stats["workers"] >= 1

