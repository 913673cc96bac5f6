"""One BuildEngine, many builds, no state leaking.

This is the coordinator's contract in miniature: an engine reused across
consecutive builds must produce the same bytes as a one-shot
``Compiler.build``, keep its incremental state (repository + overlay)
alive between builds, report per-build (not cumulative) counters, and
degrade a corrupted state directory to a correct first build.
"""

import os

import pytest

from repro.driver.build import BuildEngine, RebuildReport
from repro.driver.compiler import Compiler
from repro.driver.options import CompilerOptions
from repro.farm.protocol import OP_BUILD
from repro.farm.state import WarmState
from repro.linker.objects import encode_executable


def fresh_image(sources, opt_level=4):
    result = Compiler(CompilerOptions(opt_level=opt_level)).build(sources)
    return encode_executable(result.executable)


class TestSessionBasics:
    def test_build_returns_result_report_stats(self, calc_sources,
                                               calc_reference):
        engine = BuildEngine(CompilerOptions(opt_level=4))
        result, report = engine.build(calc_sources)
        assert result.run().value == calc_reference
        assert isinstance(report, RebuildReport)
        assert sorted(report.recompiled) == sorted(calc_sources)
        assert result.timings.total() > 0
        assert result.timings.phases  # O4 runs HLO phases

    def test_state_dir_implies_incremental(self, tmp_path):
        engine = BuildEngine(state_dir=str(tmp_path / "s"))
        assert engine.incr_state is not None

    def test_close_is_idempotent(self, tmp_path, calc_sources):
        engine = BuildEngine(CompilerOptions(opt_level=4),
                             state_dir=str(tmp_path / "s"))
        engine.build(calc_sources)
        engine.close()
        engine.close()


class TestCounterHygiene:
    """Per-build mutable counters must reset per build."""

    def test_span_counts_do_not_accumulate(self, calc_sources):
        engine = BuildEngine(CompilerOptions(opt_level=4))
        engine.build(calc_sources)
        first = len(engine.events.spans())
        assert engine.builds == 1
        # Every module edited, so the second build does the same work.
        engine.build({name: text + "\n"
                      for name, text in calc_sources.items()})
        # Without the per-build EventLog reset the second build would
        # report twice the spans.
        assert len(engine.events.spans()) == first
        assert engine.builds == 2

    def test_incremental_repo_counters_are_per_build(self, tmp_path,
                                                     calc_sources):
        engine = BuildEngine(
            CompilerOptions(opt_level=4),
            state_dir=str(tmp_path / "incr"),
        )
        engine.build(calc_sources)
        first = engine.incr_state.repository.stores
        engine.build(calc_sources)
        second = engine.incr_state.repository.stores
        assert first > 0  # first build populates the repo
        # The second build reuses everything, so a cumulative counter
        # would show >= first's stores; a per-build one shows almost
        # none (just the committed index).
        assert second < first

    def test_artifact_cache_stats_are_deltas(self, tmp_path, calc_sources):
        state = WarmState(str(tmp_path / "root"), dispatcher=None)
        try:
            first = state.execute(
                OP_BUILD, {"sources": calc_sources, "opt_level": 4}
            )["stats"]
            assert first["cache_hits"] == 0
            assert first["warm_builds_before"] == 0
            # Another configuration is another engine, over the same
            # shared cache and the same object keys.
            fresh = state.execute(
                OP_BUILD,
                {"sources": calc_sources, "opt_level": 4, "checked": True},
            )["stats"]
            assert fresh["cache_hits"] == len(calc_sources)
            assert fresh["cache_misses"] == 0
            assert fresh["warm_builds_before"] == 0
            again = state.execute(
                OP_BUILD, {"sources": calc_sources, "opt_level": 4}
            )["stats"]
            assert again["warm_builds_before"] == 1
            # The shared cache's own counters were never reset.
            assert state.artifact_cache.stats.stores >= len(calc_sources)
        finally:
            state.close()


class TestWarmReuse:
    def test_warm_session_reuses_everything(self, calc_sources):
        engine = BuildEngine(CompilerOptions(opt_level=4))
        first, _ = engine.build(calc_sources)
        second, report = engine.build(calc_sources)
        assert report.recompiled == []
        assert sorted(report.reused) == sorted(calc_sources)
        assert encode_executable(second.executable) == (
            encode_executable(first.executable)
        )

    @pytest.mark.parametrize("builds", [1, 2])
    def test_warm_build_matches_cold(self, calc_sources, builds):
        engine = BuildEngine(CompilerOptions(opt_level=4))
        for _ in range(builds):
            result, _ = engine.build(calc_sources)
        assert encode_executable(result.executable) == (
            fresh_image(calc_sources)
        )


class TestIncrementalReuse:
    """OverlayRepository + IncrementalState across builds."""

    def test_state_object_persists_across_builds(self, tmp_path,
                                                 calc_sources):
        engine = BuildEngine(
            CompilerOptions(opt_level=4, hlo_jobs=2),
            state_dir=str(tmp_path / "incr"),
        )
        state_before = engine.incr_state
        engine.build(calc_sources)
        engine.build(calc_sources)
        assert engine.incr_state is state_before

    def test_second_build_reuses_cmo_codegen(self, tmp_path,
                                             calc_sources,
                                             calc_reference):
        engine = BuildEngine(
            CompilerOptions(opt_level=4, hlo_jobs=2),
            state_dir=str(tmp_path / "incr"),
        )
        first, _ = engine.build(calc_sources)
        assert first.incr_report.first_build
        second, _ = engine.build(calc_sources)
        assert not second.incr_report.first_build
        assert sorted(second.incr_report.reused) == sorted(calc_sources)
        assert second.run().value == calc_reference
        assert encode_executable(second.executable) == (
            encode_executable(first.executable)
        )

    def test_edit_recompiles_only_consumers(self, tmp_path,
                                            calc_sources):
        engine = BuildEngine(
            CompilerOptions(opt_level=4),
            state_dir=str(tmp_path / "incr"),
        )
        engine.build(calc_sources)
        edited = dict(calc_sources)
        edited["table"] = calc_sources["table"].replace("% 8", "% 4")
        result, _ = engine.build(edited)
        report = result.incr_report
        assert "table" in report.reoptimized
        assert report.reused  # untouched modules kept their codegen
        # Same bytes as a cold build of the edited program.
        assert encode_executable(result.executable) == (
            fresh_image(edited)
        )

    def test_corrupted_state_dir_recovers(self, tmp_path, calc_sources,
                                          calc_reference):
        state_dir = str(tmp_path / "incr")
        warmup = BuildEngine(CompilerOptions(opt_level=4),
                             state_dir=state_dir)
        warmup.build(calc_sources)
        warmup.close()
        # Trash every persisted file: index and codegen blobs alike.
        for dirpath, _, filenames in os.walk(state_dir):
            for filename in filenames:
                with open(os.path.join(dirpath, filename), "wb") as f:
                    f.write(b"\xff\x00 not valid state")
        # Each of the three trashed objects is reported, then rebuilt.
        with pytest.warns(UserWarning,
                          match="skipping unreadable object") as caught:
            engine = BuildEngine(CompilerOptions(opt_level=4),
                                 state_dir=state_dir)
            result, _ = engine.build(calc_sources)
        assert len(caught) == len(calc_sources)
        assert result.incr_report.first_build  # degraded, not crashed
        assert result.run().value == calc_reference
        assert encode_executable(result.executable) == (
            fresh_image(calc_sources)
        )
        # And the rebuilt state is healthy again.
        again, _ = engine.build(calc_sources)
        assert not again.incr_report.first_build


class TestCliValidation:
    """Satellite: worker-count flags fail fast at the parser."""

    @pytest.mark.parametrize("flag", ["--hlo-jobs", "--partitions"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_rejected(self, tmp_path, capsys, flag, value):
        from repro.driver.__main__ import main

        source = tmp_path / "m.mll"
        source.write_text("func main() { return 1; }")
        with pytest.raises(SystemExit) as excinfo:
            main(["build", str(source), flag, value])
        assert excinfo.value.code == 2  # argparse usage error
        assert "must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--hlo-jobs", "--partitions"])
    def test_non_integer_rejected(self, tmp_path, capsys, flag):
        from repro.driver.__main__ import main

        source = tmp_path / "m.mll"
        source.write_text("func main() { return 1; }")
        with pytest.raises(SystemExit):
            main(["build", str(source), flag, "two"])
        assert "must be an integer >= 1" in capsys.readouterr().err

    def test_train_runs_validated(self, tmp_path, capsys):
        from repro.driver.__main__ import main

        source = tmp_path / "m.mll"
        source.write_text("func main() { return 1; }")
        with pytest.raises(SystemExit):
            main(["train", str(source), "--runs", "0"])
        assert "must be an integer >= 1" in capsys.readouterr().err
