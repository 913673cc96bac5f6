"""Integration tests: parallel scheduled builds through the driver.

Covers the scheduler's external guarantees: parallel and serial builds
of the same synthetic program are byte-identical, a warm artifact
cache makes fresh engines reuse everything, one bad module fails the
build with every diagnostic collected, and corrupt on-disk state
degrades to recompilation instead of crashing.
"""

import json

import pytest

from repro.driver.build import BuildEngine, BuildError, RebuildReport
from repro.driver.compiler import Compiler
from repro.driver.options import CompilerOptions
from repro.frontend.errors import FrontendError
from repro.linker.objects import encode_executable
from repro.sched import ArtifactCache, EventLog
from repro.synth import WorkloadConfig, generate


@pytest.fixture(scope="module")
def app():
    return generate(
        WorkloadConfig("par", n_modules=8, routines_per_module=5,
                       n_features=3, dispatch_count=80, input_size=16,
                       seed=42)
    )


class TestDeterminism:
    @pytest.mark.parametrize("opt_level", [2, 4])
    def test_parallel_build_byte_identical(self, app, opt_level):
        serial, serial_report = BuildEngine(
            CompilerOptions(opt_level=opt_level), jobs=1
        ).build(app.sources)
        parallel, parallel_report = BuildEngine(
            CompilerOptions(opt_level=opt_level), jobs=4
        ).build(app.sources)
        assert encode_executable(serial.executable) == (
            encode_executable(parallel.executable)
        )
        assert serial_report == parallel_report

    def test_compiler_build_jobs_byte_identical(self, app):
        serial = Compiler(CompilerOptions(opt_level=4)).build(app.sources)
        parallel = Compiler(CompilerOptions(opt_level=4)).build(
            app.sources, jobs=4
        )
        assert encode_executable(serial.executable) == (
            encode_executable(parallel.executable)
        )

    def test_stats_aggregate_identically(self, app):
        serial = Compiler(CompilerOptions(opt_level=2)).build(app.sources)
        parallel = Compiler(CompilerOptions(opt_level=2)).build(
            app.sources, jobs=4
        )
        assert serial.llo_stats.routines == parallel.llo_stats.routines
        assert serial.llo_stats.instructions == (
            parallel.llo_stats.instructions
        )
        assert serial.accountant.peak == parallel.accountant.peak

    def test_parallel_output_actually_runs(self, app):
        build, _ = BuildEngine(
            CompilerOptions(opt_level=4), jobs=4
        ).build(app.sources)
        reference, _ = BuildEngine(CompilerOptions(opt_level=4)).build(
            app.sources
        )
        inputs = app.make_input(seed=3)
        assert build.run(inputs=inputs).value == (
            reference.run(inputs=inputs).value
        )


class TestArtifactCacheIntegration:
    def test_warm_cache_across_fresh_engines(self, app):
        cache = ArtifactCache()
        BuildEngine(CompilerOptions(opt_level=4), jobs=2,
                    artifact_cache=cache).build(app.sources)
        fresh = BuildEngine(CompilerOptions(opt_level=4), jobs=2,
                            artifact_cache=cache)
        result, report = fresh.build(app.sources)
        assert report.recompiled == []
        assert sorted(report.reused) == sorted(app.sources)
        assert result.executable is not None
        assert cache.stats.hits >= len(app.sources)

    def test_cache_key_separates_options(self, app):
        cache = ArtifactCache()
        BuildEngine(CompilerOptions(opt_level=2),
                    artifact_cache=cache).build(app.sources)
        _, report = BuildEngine(CompilerOptions(opt_level=4),
                                artifact_cache=cache).build(app.sources)
        # +O4 objects are different artifacts: everything recompiles.
        assert sorted(report.recompiled) == sorted(app.sources)

    def test_eviction_forces_recompile(self, calc_sources):
        cache = ArtifactCache(max_bytes=64)  # far too small to hold one
        BuildEngine(CompilerOptions(opt_level=4),
                    artifact_cache=cache).build(calc_sources)
        assert cache.stats.evictions > 0
        _, report = BuildEngine(CompilerOptions(opt_level=4),
                                artifact_cache=cache).build(calc_sources)
        assert len(report.recompiled) > 0

    def test_disk_cache_survives_engines(self, tmp_path, calc_sources,
                                         calc_reference):
        directory = str(tmp_path / "artifacts")
        BuildEngine(
            CompilerOptions(opt_level=4),
            artifact_cache=ArtifactCache(directory=directory),
        ).build(calc_sources)
        result, report = BuildEngine(
            CompilerOptions(opt_level=4),
            artifact_cache=ArtifactCache(directory=directory),
        ).build(calc_sources)
        assert report.recompiled == []
        assert result.run().value == calc_reference

    def test_cache_hits_traced(self, calc_sources):
        cache = ArtifactCache()
        BuildEngine(CompilerOptions(opt_level=4),
                    artifact_cache=cache).build(calc_sources)
        engine = BuildEngine(CompilerOptions(opt_level=4),
                             artifact_cache=cache)
        engine.build(calc_sources)
        assert engine.events.count(category="cache") == len(calc_sources)


class TestFailurePropagation:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_all_diagnostics_collected(self, app, jobs):
        bad = dict(app.sources)
        bad["broken1"] = "func broken( {"
        bad["broken2"] = "func also(] {"
        engine = BuildEngine(CompilerOptions(opt_level=4), jobs=jobs)
        with pytest.raises(BuildError) as excinfo:
            engine.build(bad)
        error = excinfo.value
        assert sorted(error.failures) == [
            "compile:broken1", "compile:broken2",
        ]
        for exc in error.failures.values():
            assert isinstance(exc, FrontendError)
        # Only the link was cancelled; healthy modules all compiled.
        assert error.cancelled == ["link"]
        assert sorted(error.report.recompiled) == sorted(app.sources)

    def test_fix_after_failure_reuses_healthy_modules(self, app):
        bad = dict(app.sources)
        bad["broken"] = "func nope( {"
        engine = BuildEngine(CompilerOptions(opt_level=4), jobs=2)
        with pytest.raises(BuildError):
            engine.build(bad)
        # Healthy modules were cached by the failed build.
        _, report = engine.build(app.sources)
        assert report.recompiled == []
        # The broken module never produced an object, so there is
        # nothing to remove.
        assert report.removed == []

    def test_compiler_build_raises_original_exception(self, app):
        bad = dict(app.sources)
        bad["broken"] = "func nope( {"
        with pytest.raises(FrontendError):
            Compiler(CompilerOptions(opt_level=4)).build(bad, jobs=3)


class TestCorruptObjects:
    def test_corrupt_object_file_recompiled(self, tmp_path, calc_sources,
                                            calc_reference):
        directory = str(tmp_path / "objs")
        BuildEngine(CompilerOptions(opt_level=4),
                    object_dir=directory).build(calc_sources)
        with open(tmp_path / "objs" / "math.o", "wb") as handle:
            handle.write(b"\xff\xfe corrupt garbage")
        with open(tmp_path / "objs" / "table.o", "r+b") as handle:
            handle.truncate(3)
        with pytest.warns(UserWarning, match="unreadable object"):
            engine = BuildEngine(CompilerOptions(opt_level=4),
                                 object_dir=directory)
        result, report = engine.build(calc_sources)
        assert sorted(report.recompiled) == ["math", "table"]
        assert report.reused == ["main"]
        assert result.run().value == calc_reference

    def test_corrupt_artifact_recompiled(self, calc_sources,
                                         calc_reference):
        cache = ArtifactCache()
        engine = BuildEngine(CompilerOptions(opt_level=4),
                             artifact_cache=cache)
        engine.build(calc_sources)
        for key in list(cache._entries):
            cache.put(key, b"garbage")
        result, report = BuildEngine(
            CompilerOptions(opt_level=4), artifact_cache=cache
        ).build(calc_sources)
        assert sorted(report.recompiled) == sorted(calc_sources)
        assert result.run().value == calc_reference


class TestReportRepr:
    def test_counts_and_names_for_all_fields(self):
        report = RebuildReport()
        report.recompiled = ["a"]
        report.reused = ["b", "c"]
        report.removed = ["d"]
        text = repr(report)
        assert "recompiled=1 ['a']" in text
        assert "reused=2 ['b', 'c']" in text
        assert "removed=1 ['d']" in text


class TestTracing:
    def test_trace_covers_every_module_task(self, app, tmp_path):
        log = EventLog()
        Compiler(CompilerOptions(opt_level=4)).build(
            app.sources, jobs=4, events=log
        )
        path = str(tmp_path / "trace.json")
        log.write_chrome_trace(path)
        with open(path) as handle:
            trace = json.load(handle)
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        names = {e["name"] for e in spans}
        for module in app.sources:
            assert "frontend:%s" % module in names
            assert "compile:%s" % module in names
        assert "link" in names

    def test_summary_readable(self, app):
        engine = BuildEngine(CompilerOptions(opt_level=4), jobs=2)
        engine.build(app.sources)
        text = engine.events.summary()
        assert "compile" in text and "link" in text


class TestCliFlags:
    def test_jobs_and_trace_out(self, tmp_path, capsys):
        from repro.driver.__main__ import main

        for name, text in {
            "util": "func helper(x) { return x * 2; }",
            "main": "func main() { return helper(21); }",
        }.items():
            (tmp_path / (name + ".mll")).write_text(text)
        trace_path = str(tmp_path / "trace.json")
        assert main([
            "build", str(tmp_path / "util.mll"), str(tmp_path / "main.mll"),
            "-O", "4", "-j", "2", "--trace-out", trace_path, "--run",
        ]) == 0
        out = capsys.readouterr().out
        assert "jobs: 2 workers" in out
        assert "trace:" in out
        with open(trace_path) as handle:
            trace = json.load(handle)
        names = {e["name"] for e in trace["traceEvents"]}
        assert "compile:util" in names and "compile:main" in names

    def test_bad_jobs_rejected(self, tmp_path, capsys):
        from repro.driver.__main__ import main

        source = tmp_path / "m.mll"
        source.write_text("func main() { return 1; }")
        with pytest.raises(SystemExit):
            main(["build", str(source), "-j", "0"])
        assert "must be an integer >= 1" in capsys.readouterr().err
