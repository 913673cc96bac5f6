"""Tests for the command-line compiler driver (python -m repro.driver)."""

import json
import os
import re

import pytest

from repro.driver.__main__ import main

UTIL = """
static global seed = 123;
func mix(a, b) { return (a * 31 + b) & 65535; }
func next_rand() { seed = mix(seed, 17); return seed; }
"""

MAIN = """
func main() {
    var acc = 0;
    for (var i = 0; i < 20; i = i + 1) {
        acc = mix(acc, next_rand());
    }
    return acc;
}
"""


@pytest.fixture()
def source_files(tmp_path):
    util = tmp_path / "util.mll"
    util.write_text(UTIL)
    entry = tmp_path / "main.mll"
    entry.write_text(MAIN)
    return [str(util), str(entry)]


class TestBuild:
    def test_build_and_run(self, source_files, capsys):
        assert main(["build"] + source_files + ["--run"]) == 0
        out = capsys.readouterr().out
        assert "build +O2" in out
        assert "run: value=" in out

    def test_o4_build(self, source_files, capsys):
        assert main(["build"] + source_files + ["-O", "4", "--run"]) == 0
        out = capsys.readouterr().out
        assert "+O4" in out and "hlo:" in out
        # The serial slice, in pipeline order (no incremental session:
        # nothing to summarize).
        (wpa_line,) = [l for l in out.splitlines() if l.startswith("wpa: ")]
        assert [part.split()[0] for part in wpa_line[5:].split(", ")] == [
            "scan", "callgraph", "ipcp", "clone", "inline", "replay"
        ]
        # Per-pass seconds, then the executions the pipeline made and
        # the ones it could prove unnecessary.
        (scalar_line,) = [
            l for l in out.splitlines() if l.startswith("scalar: ")
        ]
        counts = re.search(r"; (\d+) runs, (\d+) skipped$", scalar_line)
        assert counts and int(counts.group(1)) > 0 and int(counts.group(2)) > 0
        # What the loader paid the codec for: nothing, on a program
        # this small (NAIM never engages).
        (naim_line,) = [l for l in out.splitlines() if l.startswith("naim: ")]
        assert re.match(
            r"naim: 0 encodes, 0 clean evictions, 0 decodes, 0 fetches, "
            r"\d+ spent bodies released, cache hit ratio ",
            naim_line,
        )

    def test_hlo_jobs_line_shows_the_workers_that_ran(self, source_files,
                                                      capsys):
        # One partition leaves work for one worker, however many asked.
        assert main(["build"] + source_files + [
            "-O", "4", "--hlo-jobs", "64", "--partitions", "1",
        ]) == 0
        (line,) = [l for l in capsys.readouterr().out.splitlines()
                   if l.startswith("hlo-jobs: ")]
        assert line == ("hlo-jobs: 1 workers of 64 requested, 1 partitions "
                        "(in-process backend)")

    def test_bad_level_rejected(self, source_files):
        with pytest.raises(SystemExit):
            main(["build"] + source_files + ["-O", "3"])

    @pytest.mark.parametrize("flags", [
        ["--selectivity", "150"],
        # Removed with PR 14 (no Repository was ever built from them).
        ["--repo-compress", "0"],
        ["--repo-segment-mb", "1"],
        ["--prefetch-depth", "2"],
        # Removed with the compile-task thread pool.
        ["-j", "2"],
        # Removed with the second build server: ``--farm HOST:PORT`` is
        # the one remote path.
        ["--daemon"],
        # Removed for ``python -m cProfile -m repro.driver build``.
        ["--profile-hot"],
    ])
    def test_rejected_value_is_a_usage_error(self, source_files, capsys,
                                             flags):
        with pytest.raises(SystemExit) as excinfo:
            main(["build"] + source_files + flags)
        assert excinfo.value.code == 2
        error_lines = [line for line in capsys.readouterr().err.splitlines()
                       if not line.startswith(("usage:", " "))]
        assert len(error_lines) == 1 and "error:" in error_lines[0]
        assert flags[0] in error_lines[0]

    def test_selectivity_without_a_profile_says_it_is_ignored(
            self, source_files, capsys):
        assert main(
            ["build"] + source_files + ["-O", "4", "--selectivity", "20"]
        ) == 0
        assert "--selectivity 20 ignored" in capsys.readouterr().err

    def test_trace_out_with_farm_says_it_is_ignored(
            self, source_files, capsys, tmp_path):
        trace = str(tmp_path / "trace.json")
        # Nothing listens on port 1: the build fails, after the warning.
        assert main(
            ["build"] + source_files
            + ["--farm", "127.0.0.1:1", "--farm-token", "t",
               "--trace-out", trace]
        ) == 1
        err = capsys.readouterr().err
        assert "--trace-out %s ignored" % trace in err
        assert not os.path.exists(trace)

    def test_duplicate_module_names(self, tmp_path):
        a = tmp_path / "x.mll"
        a.write_text("func main() { return 1; }")
        sub = tmp_path / "sub"
        sub.mkdir()
        b = sub / "x.mll"
        b.write_text("func other() { return 2; }")
        with pytest.raises(SystemExit, match="duplicate module"):
            main(["build", str(a), str(b)])


class TestSourceErrors:
    @pytest.mark.parametrize("state_dir", [False, True])
    def test_a_source_error_is_a_diagnostic(self, source_files, tmp_path,
                                            capsys, state_dir):
        bad = tmp_path / "bad.mll"
        bad.write_text("func broken( {")
        argv = ["build", str(bad)] + source_files + ["-O", "4"]
        if state_dir:
            argv += ["--state-dir", str(tmp_path / "state")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: compile:bad: bad:1:14: expected identifier (at '{')"
        ]

    def test_a_link_error_is_a_diagnostic(self, source_files, capsys):
        assert main(["build", source_files[0]]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: link: undefined entry routine 'main'"
        ]


class TestTrainFlow:
    def test_train_then_pbo_build(self, source_files, tmp_path, capsys):
        db_path = str(tmp_path / "prof.json")
        assert main(
            ["train"] + source_files + ["-o", db_path, "--runs", "2"]
        ) == 0
        assert os.path.exists(db_path)
        payload = json.load(open(db_path))
        assert payload["run_count"] == 2

        assert main(
            ["build"] + source_files + ["-O", "4", "-P", db_path, "--run"]
        ) == 0
        out = capsys.readouterr().out
        assert "+O4 +P" in out


class TestObjdump:
    def test_prints_il(self, source_files, capsys):
        assert main(["objdump", source_files[0]]) == 0
        out = capsys.readouterr().out
        assert "routine mix(2) exported" in out
        assert "global util::seed static" in out
