"""End-to-end tests for summary-based incremental CMO.

The contract under test: an incremental +O4 rebuild is byte-identical
to a clean build of the same sources -- the cached per-module codegen
is a pure shortcut, never a semantic input -- and modules whose
consumed cross-module facts are unchanged skip the scalar pipeline
and code generation.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.driver.build import BuildEngine
from repro.driver.compiler import Compiler, train
from repro.driver.options import CompilerOptions
from repro.incr.state import IncrementalState
from repro.linker.objects import encode_executable

#: Three modules with cross-module inlining, globals and constants --
#: the same shape as the conftest calc program, with ``math`` as the
#: single-module-edit target.
CALC_SOURCES = {
    "math": """
static global factor = 3;
global calls = 0;

func scale(x) {
    calls = calls + 1;
    return x * factor;
}

func clamp(v, lo, hi) {
    if (v < lo) { return lo; }
    if (v > hi) { return hi; }
    return v;
}
""",
    "table": """
static global grid[8] = {5, 3, 8, 1, 9, 2, 7, 4};
global writes = 0;

func lookup(i) {
    return grid[i % 8];
}

func store_result(i, v) {
    writes = writes + 1;
    result_buf[i % 16] = v;
    return v;
}
""",
    "main": """
global result_buf[16];

func main() {
    var total = 0;
    for (var i = 0; i < 40; i = i + 1) {
        var v = scale(lookup(i));
        v = clamp(v, 0, 20);
        store_result(i, v);
        total = total + v;
    }
    return total + calls + writes;
}
""",
}


def clean_image(sources, profile_db=None, pbo=False):
    build = Compiler(CompilerOptions(opt_level=4, pbo=pbo)).build(
        sources, profile_db=profile_db
    )
    return encode_executable(build.executable)


def incremental_engine(**kwargs):
    return BuildEngine(CompilerOptions(opt_level=4), incremental=True,
                       **kwargs)


def edited_calc():
    sources = dict(CALC_SOURCES)
    sources["math"] = sources["math"].replace("factor = 3", "factor = 4")
    return sources


class TestFirstBuild:
    def test_byte_identical_to_clean(self):
        engine = incremental_engine()
        result, report = engine.build(CALC_SOURCES)
        assert encode_executable(result.executable) == (
            clean_image(CALC_SOURCES)
        )
        assert result.incr_report is not None
        assert result.incr_report.first_build
        # Nothing to reuse yet: every CMO module went through codegen.
        assert report.cmo_reused == []
        assert sorted(report.cmo_reoptimized) == report.cmo_reoptimized
        assert report.cmo_reoptimized


class TestNoopRebuild:
    def test_everything_reused(self):
        engine = incremental_engine()
        first, _ = engine.build(CALC_SOURCES)
        second, report = engine.build(CALC_SOURCES)
        assert report.cmo_reoptimized == []
        assert set(report.cmo_reused) == set(CALC_SOURCES)
        assert encode_executable(second.executable) == (
            encode_executable(first.executable)
        )
        assert second.incr_report.changed_modules == []


class TestSingleModuleEdit:
    def test_byte_identical_and_partial_reuse(self):
        engine = incremental_engine()
        engine.build(CALC_SOURCES)
        edited = edited_calc()
        result, report = engine.build(edited)
        assert "math" in report.cmo_reoptimized
        # table neither inlines from math nor reads its facts.
        assert "table" in report.cmo_reused
        assert encode_executable(result.executable) == clean_image(edited)

    def test_edited_module_is_changed(self):
        engine = incremental_engine()
        engine.build(CALC_SOURCES)
        result, _ = engine.build(edited_calc())
        assert result.incr_report.changed_modules == ["math"]

    def test_rebuilt_image_runs(self):
        engine = incremental_engine()
        engine.build(CALC_SOURCES)
        result, _ = engine.build(edited_calc())
        clean = Compiler(CompilerOptions(opt_level=4)).build(edited_calc())
        assert result.run().value == clean.run().value

    def test_revert_restores_original_image(self):
        """Editing back to the original sources must reproduce the
        original image -- stale cache entries must never resurface."""
        engine = incremental_engine()
        first, _ = engine.build(CALC_SOURCES)
        engine.build(edited_calc())
        reverted, report = engine.build(CALC_SOURCES)
        assert encode_executable(reverted.executable) == (
            encode_executable(first.executable)
        )


class TestStateDir:
    def test_persists_across_engine_instances(self, tmp_path):
        state_dir = str(tmp_path / "state")
        first_engine = BuildEngine(CompilerOptions(opt_level=4),
                                   state_dir=state_dir)
        first, _ = first_engine.build(CALC_SOURCES)

        second_engine = BuildEngine(CompilerOptions(opt_level=4),
                                    state_dir=state_dir)
        second, report = second_engine.build(CALC_SOURCES)
        assert report.reused == list(CALC_SOURCES)  # objects reused too
        assert report.cmo_reoptimized == []
        assert encode_executable(second.executable) == (
            encode_executable(first.executable)
        )

    def test_edit_after_reload(self, tmp_path):
        state_dir = str(tmp_path / "state")
        BuildEngine(CompilerOptions(opt_level=4),
                    state_dir=state_dir).build(CALC_SOURCES)
        engine = BuildEngine(CompilerOptions(opt_level=4),
                             state_dir=state_dir)
        edited = edited_calc()
        result, report = engine.build(edited)
        assert "math" in report.cmo_reoptimized
        assert report.cmo_reused
        assert encode_executable(result.executable) == clean_image(edited)

    def test_an_index_with_dependency_edges_loads_warm(self, tmp_path):
        """An index written when the state still kept per-module
        dependency edges carries a ``deps`` list: it loads warm, and
        the next link commits an index without it."""
        state_dir = str(tmp_path / "state")
        BuildEngine(CompilerOptions(opt_level=4),
                    state_dir=state_dir).build(CALC_SOURCES)
        state = IncrementalState(directory=os.path.join(state_dir,
                                                        "incr-cmo"))
        index = json.loads(bytes(state.repository.fetch("incr", "index")))
        assert "deps" not in index
        index["deps"] = [
            ["main", "math", "inline", "scale"],
            ["main", "table", "fact", "store_result"],
            ["main", "table", "global", "writes"],
        ]
        state.repository.store("incr", "index", json.dumps(
            index, sort_keys=True).encode("utf-8"))
        state.close()

        engine = BuildEngine(CompilerOptions(opt_level=4),
                             state_dir=state_dir)
        edited = dict(CALC_SOURCES)
        edited["table"] = edited["table"].replace("i % 8]", "i % 7]")
        result, report = engine.build(edited)
        assert not result.incr_report.first_build
        assert result.incr_report.describe_wpa() == "reused"
        assert report.cmo_reused
        assert encode_executable(result.executable) == clean_image(edited)
        stored = json.loads(bytes(
            engine.incr_state.repository.fetch("incr", "index")
        ))
        assert "deps" not in stored
        assert stored["routine_keys"] == engine.incr_state.routine_keys


class TestOptionsInvalidation:
    def test_option_change_is_first_build(self, tmp_path):
        state_dir = str(tmp_path / "state")
        BuildEngine(CompilerOptions(opt_level=4),
                    state_dir=state_dir).build(CALC_SOURCES)
        profile = train(CALC_SOURCES, [None])
        engine = BuildEngine(CompilerOptions(opt_level=4, pbo=True),
                             state_dir=state_dir)
        result, report = engine.build(CALC_SOURCES, profile_db=profile)
        assert result.incr_report.first_build
        assert report.cmo_reused == []
        assert encode_executable(result.executable) == (
            clean_image(CALC_SOURCES, profile_db=profile, pbo=True)
        )


class TestProfileBasedBuilds:
    def test_pbo_incremental_byte_identity(self):
        profile = train(CALC_SOURCES, [None])
        engine = BuildEngine(CompilerOptions(opt_level=4, pbo=True),
                             incremental=True)
        engine.build(CALC_SOURCES, profile_db=profile)
        second, report = engine.build(CALC_SOURCES, profile_db=profile)
        assert report.cmo_reoptimized == []

        edited = edited_calc()
        result, report = engine.build(edited, profile_db=profile)
        assert "math" in report.cmo_reoptimized
        assert encode_executable(result.executable) == (
            clean_image(edited, profile_db=profile, pbo=True)
        )


class TestLowerOptLevels:
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_non_cmo_builds_unaffected(self, level):
        """Below +O4 there is no link-time CMO step; the incremental
        engine must behave exactly like a plain one."""
        engine = BuildEngine(CompilerOptions(opt_level=level),
                             incremental=True)
        result, report = engine.build(CALC_SOURCES)
        assert result.incr_report is None
        assert report.cmo_reused == [] and report.cmo_reoptimized == []
        clean = Compiler(CompilerOptions(opt_level=level)).build(
            CALC_SOURCES
        )
        assert encode_executable(result.executable) == (
            encode_executable(clean.executable)
        )
