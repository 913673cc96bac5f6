"""Integration tests for the make-compatible incremental build engine.

Besides make-style reuse, covers what both builders (the engine and
``Compiler.build``) guarantee about a build as a whole: a warm artifact
cache makes fresh engines reuse everything, one bad module fails the
build with every diagnostic collected, corrupt on-disk state degrades
to recompilation instead of crashing, codegen accounting folds the
same way in both, and the trace has a span per module step.
"""

import json

import pytest

from repro.driver.build import BuildEngine, BuildError, RebuildReport
from repro.driver.compiler import Compiler, train
from repro.driver.options import CompilerOptions
from repro.frontend.errors import FrontendError
from repro.sched import ArtifactCache, EventLog
from repro.synth import WorkloadConfig, generate


@pytest.fixture(scope="module")
def app():
    return generate(
        WorkloadConfig("par", n_modules=8, routines_per_module=5,
                       n_features=3, dispatch_count=80, input_size=16,
                       seed=42)
    )


class TestIncremental:
    def test_first_build_compiles_everything(self, calc_sources,
                                             calc_reference):
        engine = BuildEngine(CompilerOptions(opt_level=4))
        result, report = engine.build(calc_sources)
        assert sorted(report.recompiled) == sorted(calc_sources)
        assert report.reused == []
        assert result.run().value == calc_reference

    def test_noop_rebuild_reuses_all(self, calc_sources):
        engine = BuildEngine(CompilerOptions(opt_level=4))
        engine.build(calc_sources)
        _, report = engine.build(calc_sources)
        assert report.recompiled == []
        assert sorted(report.reused) == sorted(calc_sources)

    def test_edit_recompiles_only_changed(self, calc_sources):
        engine = BuildEngine(CompilerOptions(opt_level=4))
        engine.build(calc_sources)
        edited = dict(calc_sources)
        edited["math"] = edited["math"].replace("factor = 3", "factor = 5")
        result, report = engine.build(edited)
        assert report.recompiled == ["math"]
        assert "table" in report.reused
        # The edit is visible in the output (factor 3 -> 5 changes sums).
        engine2 = BuildEngine(CompilerOptions(opt_level=4))
        original, _ = engine2.build(calc_sources)
        assert result.run().value != original.run().value

    def test_removed_module_dropped(self, calc_sources):
        engine = BuildEngine(CompilerOptions(opt_level=4))
        engine.build(calc_sources)
        smaller = {
            "main": "func main() { return 7; }",
        }
        result, report = engine.build(smaller)
        assert sorted(report.removed) == ["math", "table"]
        assert result.run().value == 7

    def test_cmo_reoptimizes_at_link_despite_reuse(self, calc_sources):
        """Fat objects: editing one module changes inlined code in
        *other* modules' routines (HLO reruns at link)."""
        engine = BuildEngine(CompilerOptions(opt_level=4))
        first, _ = engine.build(calc_sources)
        edited = dict(calc_sources)
        edited["math"] = edited["math"].replace("factor = 3", "factor = 9")
        second, report = engine.build(edited)
        assert report.recompiled == ["math"]
        assert first.run().value != second.run().value


class TestPersistence:
    def test_objects_persist_across_engines(self, tmp_path, calc_sources,
                                            calc_reference):
        directory = str(tmp_path / "objs")
        engine1 = BuildEngine(CompilerOptions(opt_level=4),
                              object_dir=directory)
        engine1.build(calc_sources)

        engine2 = BuildEngine(CompilerOptions(opt_level=4),
                              object_dir=directory)
        result, report = engine2.build(calc_sources)
        assert report.recompiled == []
        assert result.run().value == calc_reference

    def test_persisted_o2_objects(self, tmp_path, calc_sources,
                                  calc_reference):
        directory = str(tmp_path / "objs2")
        engine1 = BuildEngine(CompilerOptions(opt_level=2),
                              object_dir=directory)
        engine1.build(calc_sources)
        engine2 = BuildEngine(CompilerOptions(opt_level=2),
                              object_dir=directory)
        result, report = engine2.build(calc_sources)
        assert report.recompiled == []
        assert result.run().value == calc_reference


class TestWithProfiles:
    def test_pbo_incremental_build(self, calc_sources, calc_reference):
        profile = train(calc_sources, [None])
        engine = BuildEngine(CompilerOptions(opt_level=4, pbo=True))
        result, _ = engine.build(calc_sources, profile_db=profile)
        assert result.run().value == calc_reference
        result2, report = engine.build(calc_sources, profile_db=profile)
        assert report.recompiled == []
        assert result2.run().value == calc_reference


class TestArtifactCacheIntegration:
    def test_warm_cache_across_fresh_engines(self, app):
        cache = ArtifactCache()
        BuildEngine(CompilerOptions(opt_level=4),
                    artifact_cache=cache).build(app.sources)
        fresh = BuildEngine(CompilerOptions(opt_level=4),
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
    @pytest.mark.parametrize("n_broken", [1, 4])
    def test_all_diagnostics_collected(self, app, n_broken):
        bad = dict(app.sources)
        broken = ["broken%d" % i for i in range(1, n_broken + 1)]
        for name in broken:
            bad[name] = "func %s( {" % name
        engine = BuildEngine(CompilerOptions(opt_level=4))
        with pytest.raises(BuildError) as excinfo:
            engine.build(bad)
        error = excinfo.value
        assert sorted(error.failures) == ["compile:" + n for n in broken]
        for exc in error.failures.values():
            assert isinstance(exc, FrontendError)
        # Only the link was cancelled; healthy modules all compiled.
        assert error.cancelled == ["link"]
        assert sorted(error.report.recompiled) == sorted(app.sources)
        assert str(error).startswith(
            "%d task(s) failed (1 cancelled): " % n_broken
        )

    def test_fix_after_failure_reuses_healthy_modules(self, app):
        bad = dict(app.sources)
        bad["broken"] = "func nope( {"
        engine = BuildEngine(CompilerOptions(opt_level=4))
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
            Compiler(CompilerOptions(opt_level=4)).build(bad)


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


class TestCodegenAccounting:
    @pytest.mark.parametrize("opt_level", [2, 4])
    def test_both_builders_fold_the_same_numbers(self, app, opt_level):
        options = CompilerOptions(opt_level=opt_level)
        direct = Compiler(options).build(app.sources)
        engine, _ = BuildEngine(options).build(app.sources)
        assert direct.llo_stats.routines == engine.llo_stats.routines
        assert direct.llo_stats.instructions == engine.llo_stats.instructions
        assert direct.llo_stats.spilled == engine.llo_stats.spilled
        assert direct.accountant.peak == engine.accountant.peak


class TestTracing:
    def test_trace_covers_every_module_task(self, app, tmp_path):
        log = EventLog()
        Compiler(CompilerOptions(opt_level=4)).build(app.sources, events=log)
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

    def test_spans_are_frontends_first_in_source_order(self, calc_sources):
        log = EventLog()
        Compiler(CompilerOptions(opt_level=2)).build(calc_sources,
                                                     events=log)
        assert [event.name for event in log.spans()] == (
            ["frontend:%s" % name for name in calc_sources]
            + ["compile:%s" % name for name in calc_sources]
            + ["link"]
        )
        assert {event.worker for event in log.events} == {0}

    def test_failing_module_span_carries_its_error(self, calc_sources):
        bad = dict(calc_sources)
        bad["broken"] = "func nope( {"
        log = EventLog()
        with pytest.raises(FrontendError):
            Compiler(CompilerOptions(opt_level=2)).build(bad, events=log)
        (span,) = [e for e in log.spans() if e.name == "frontend:broken"]
        assert span.args["error"].startswith("FrontendError: ")
        (error,) = [e for e in log.events if e.category == "error"]
        assert error.name == "error:frontend:broken"

    def test_engine_times_and_traces_its_compile_loop(self, calc_sources):
        engine = BuildEngine(CompilerOptions(opt_level=4))
        result, _ = engine.build(calc_sources)
        assert {"frontend", "compile"} <= set(result.timings.phases)
        names = [event.name for event in engine.events.spans()]
        for module in calc_sources:
            assert "frontend:%s" % module in names
            assert "compile:%s" % module in names
        # A no-op rebuild compiles nothing, so it times no frontend.
        result, _ = engine.build(calc_sources)
        assert "frontend" not in result.timings.phases
        assert [event.name for event in engine.events.spans()] == ["link"]

    def test_summary_readable(self, app):
        engine = BuildEngine(CompilerOptions(opt_level=4))
        engine.build(app.sources)
        text = engine.events.summary()
        assert "compile" in text and "link" in text


class TestCliTrace:
    def test_trace_out(self, tmp_path, capsys):
        from repro.driver.__main__ import main

        for name, text in {
            "util": "func helper(x) { return x * 2; }",
            "main": "func main() { return helper(21); }",
        }.items():
            (tmp_path / (name + ".mll")).write_text(text)
        trace_path = str(tmp_path / "trace.json")
        assert main([
            "build", str(tmp_path / "util.mll"), str(tmp_path / "main.mll"),
            "-O", "4", "--trace-out", trace_path, "--run",
        ]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        with open(trace_path) as handle:
            trace = json.load(handle)
        names = {e["name"] for e in trace["traceEvents"]}
        for module in ("util", "main"):
            assert "frontend:%s" % module in names
            assert "compile:%s" % module in names
        assert "link" in names
