"""CompileSession: one process, many builds, no state leaking.

This is the coordinator's contract in miniature: a session reused across
consecutive builds must produce the same bytes as a fresh cold build,
keep its incremental state (repository + overlay) alive between
builds, report per-build (not cumulative) statistics, and degrade a
corrupted state directory to a correct first build.
"""

import os

import pytest

from repro.driver.compiler import CompileSession, SessionBuildStats
from repro.driver.options import CompilerOptions
from repro.linker.objects import encode_executable
from repro.sched import ArtifactCache


def fresh_image(sources, opt_level=4, **session_kwargs):
    session = CompileSession(CompilerOptions(opt_level=opt_level),
                             **session_kwargs)
    result, _, _ = session.build(sources)
    session.close()
    return encode_executable(result.executable)


class TestSessionBasics:
    def test_build_returns_result_report_stats(self, calc_sources,
                                               calc_reference):
        session = CompileSession(CompilerOptions(opt_level=4))
        result, report, stats = session.build(calc_sources)
        assert result.run().value == calc_reference
        assert report is None  # plain compiler path has no report
        assert isinstance(stats, SessionBuildStats)
        assert stats.seconds > 0
        assert stats.phase_seconds  # O4 runs HLO phases

    def test_state_dir_implies_incremental(self, tmp_path):
        session = CompileSession(state_dir=str(tmp_path / "s"))
        assert session.incremental

    def test_close_is_idempotent(self, tmp_path, calc_sources):
        session = CompileSession(CompilerOptions(opt_level=4),
                                 state_dir=str(tmp_path / "s"))
        session.build(calc_sources)
        session.close()
        session.close()


class TestCounterHygiene:
    """Satellite: per-build mutable counters must reset per build."""

    def test_span_counts_do_not_accumulate(self, calc_sources):
        session = CompileSession(CompilerOptions(opt_level=4))
        _, _, first = session.build(calc_sources)
        _, _, second = session.build(calc_sources)
        # Without the per-build EventLog reset the second build would
        # report twice the spans.
        assert second.n_spans == first.n_spans
        assert second.warm_builds_before == 1

    def test_incremental_repo_counters_are_per_build(self, tmp_path,
                                                     calc_sources):
        session = CompileSession(
            CompilerOptions(opt_level=4),
            state_dir=str(tmp_path / "incr"),
        )
        _, _, first = session.build(calc_sources)
        _, _, second = session.build(calc_sources)
        assert first.repo_stores > 0  # first build populates the repo
        # The second build reuses everything, so a cumulative counter
        # would show >= first's stores; a per-build one shows almost
        # none (just the committed index).
        assert second.repo_stores < first.repo_stores

    def test_artifact_cache_stats_are_deltas(self, calc_sources):
        cache = ArtifactCache()
        session = CompileSession(CompilerOptions(opt_level=4),
                                 artifact_cache=cache, warm=True)
        _, _, first = session.build(calc_sources)
        assert first.cache_hits == 0
        fresh = CompileSession(CompilerOptions(opt_level=4),
                               artifact_cache=cache, warm=True)
        _, _, warm = fresh.build(calc_sources)
        assert warm.cache_hits == len(calc_sources)
        # The shared cache's own counters were never reset.
        assert cache.stats.stores >= len(calc_sources)


class TestWarmReuse:
    def test_warm_session_reuses_everything(self, calc_sources):
        session = CompileSession(CompilerOptions(opt_level=4),
                                 warm=True)
        first, _, _ = session.build(calc_sources)
        second, report, _ = session.build(calc_sources)
        assert report.recompiled == []
        assert sorted(report.reused) == sorted(calc_sources)
        assert encode_executable(second.executable) == (
            encode_executable(first.executable)
        )

    @pytest.mark.parametrize("builds", [1, 2])
    def test_warm_build_matches_cold(self, calc_sources, builds):
        session = CompileSession(CompilerOptions(opt_level=4), warm=True)
        for _ in range(builds):
            result, _, _ = session.build(calc_sources)
        assert encode_executable(result.executable) == (
            fresh_image(calc_sources)
        )


class TestIncrementalReuse:
    """Satellite: OverlayRepository + IncrementalState across builds."""

    def test_state_object_persists_across_builds(self, tmp_path,
                                                 calc_sources):
        session = CompileSession(
            CompilerOptions(opt_level=4, hlo_jobs=2),
            state_dir=str(tmp_path / "incr"),
        )
        state_before = session.engine.incr_state
        session.build(calc_sources)
        session.build(calc_sources)
        assert session.engine.incr_state is state_before

    def test_second_build_reuses_cmo_codegen(self, tmp_path,
                                             calc_sources,
                                             calc_reference):
        session = CompileSession(
            CompilerOptions(opt_level=4, hlo_jobs=2),
            state_dir=str(tmp_path / "incr"),
        )
        first, _, _ = session.build(calc_sources)
        assert first.incr_report.first_build
        second, _, _ = session.build(calc_sources)
        assert not second.incr_report.first_build
        assert sorted(second.incr_report.reused) == sorted(calc_sources)
        assert second.run().value == calc_reference
        assert encode_executable(second.executable) == (
            encode_executable(first.executable)
        )

    def test_edit_recompiles_only_consumers(self, tmp_path,
                                            calc_sources):
        session = CompileSession(
            CompilerOptions(opt_level=4),
            state_dir=str(tmp_path / "incr"),
        )
        session.build(calc_sources)
        edited = dict(calc_sources)
        edited["table"] = calc_sources["table"].replace("% 8", "% 4")
        result, _, _ = session.build(edited)
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
        warmup = CompileSession(CompilerOptions(opt_level=4),
                                state_dir=state_dir)
        warmup.build(calc_sources)
        warmup.close()
        # Trash every persisted file: index and codegen blobs alike.
        for dirpath, _, filenames in os.walk(state_dir):
            for filename in filenames:
                with open(os.path.join(dirpath, filename), "wb") as f:
                    f.write(b"\xff\x00 not valid state")
        session = CompileSession(CompilerOptions(opt_level=4),
                                 state_dir=state_dir)
        result, _, _ = session.build(calc_sources)
        assert result.incr_report.first_build  # degraded, not crashed
        assert result.run().value == calc_reference
        assert encode_executable(result.executable) == (
            fresh_image(calc_sources)
        )
        # And the rebuilt state is healthy again.
        again, _, _ = session.build(calc_sources)
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
