"""Unit tests for module summaries and reuse fingerprints."""

from __future__ import annotations

from repro.driver.options import CompilerOptions
from repro.frontend import compile_source
from repro.hlo.analysis.modref import ModRefInfo
from repro.hlo.profile_view import ProfileView
from repro.incr.summary import (
    ModuleSummary,
    extract_routine_facts,
    modref_fingerprint,
    options_fingerprint,
    routine_body_hash,
    view_fingerprint,
)

MOD_A = """
global counter = 0;

func bump(x) {
    counter = counter + x;
    return counter;
}

func twice(v) {
    return v * 2;
}
"""


def _routine(source, module_name, routine_name):
    return compile_source(source, module_name).routines[routine_name]


class TestRoutineBodyHash:
    def test_deterministic(self):
        first = _routine(MOD_A, "a", "bump")
        second = _routine(MOD_A, "a", "bump")
        assert routine_body_hash(first) == routine_body_hash(second)

    def test_sibling_edit_does_not_disturb(self):
        """Editing a sibling routine's body must not disturb this
        routine's hash (program-wide PID numbering must not leak in)."""
        original = _routine(MOD_A, "a", "twice")
        sibling_edited = _routine(
            MOD_A.replace("counter + x", "counter + x + x"), "a", "twice"
        )
        assert routine_body_hash(original) == (
            routine_body_hash(sibling_edited)
        )

    def test_module_name_is_part_of_identity(self):
        source = "func twice(v) { return v * 2; }"
        assert routine_body_hash(_routine(source, "a", "twice")) != (
            routine_body_hash(_routine(source, "b", "twice"))
        )

    def test_body_edit_changes_hash(self):
        original = _routine(MOD_A, "a", "twice")
        edited = _routine(MOD_A.replace("v * 2", "v * 3"), "a", "twice")
        assert routine_body_hash(original) != routine_body_hash(edited)


class TestViewFingerprint:
    def test_none_view(self):
        assert view_fingerprint(None) == "-"

    def test_counts_participate(self):
        base = ProfileView("f", block_counts={"entry": 10, "then": 4})
        same = ProfileView("f", block_counts={"then": 4, "entry": 10})
        hotter = ProfileView("f", block_counts={"entry": 10, "then": 9})
        assert view_fingerprint(base) == view_fingerprint(same)
        assert view_fingerprint(base) != view_fingerprint(hotter)

    def test_static_vs_measured(self):
        counts = {"entry": 10}
        measured = ProfileView("f", block_counts=counts)
        static = ProfileView("f", block_counts=counts,
                             is_static_estimate=True)
        assert view_fingerprint(measured) != view_fingerprint(static)


class TestModrefFingerprint:
    def test_unknown(self):
        info = ModRefInfo()
        info.unknown = True
        assert modref_fingerprint(info) == "unknown"

    def test_sets_are_order_free(self):
        one = ModRefInfo()
        one.mod.update(["b", "a"])
        one.ref.add("c")
        two = ModRefInfo()
        two.mod.update(["a", "b"])
        two.ref.add("c")
        assert modref_fingerprint(one) == modref_fingerprint(two)
        two.ref.add("d")
        assert modref_fingerprint(one) != modref_fingerprint(two)


class TestOptionsFingerprint:
    def test_stable_for_equal_options(self):
        assert options_fingerprint(CompilerOptions(opt_level=4)) == (
            options_fingerprint(CompilerOptions(opt_level=4))
        )

    def test_opt_level_participates(self):
        assert options_fingerprint(CompilerOptions(opt_level=4)) != (
            options_fingerprint(CompilerOptions(opt_level=2))
        )

    def test_hlo_knobs_participate(self):
        tweaked = CompilerOptions(opt_level=4)
        knob = sorted(vars(tweaked.hlo))[0]
        setattr(tweaked.hlo, knob, object())
        assert options_fingerprint(tweaked) != (
            options_fingerprint(CompilerOptions(opt_level=4))
        )


class TestModuleSummary:
    def test_fingerprint_stable(self):
        module = compile_source(MOD_A, "a")
        assert ModuleSummary.from_module(module).fingerprint() == (
            ModuleSummary.from_module(compile_source(MOD_A, "a")).fingerprint()
        )

    def test_body_edit_changes_fingerprint(self):
        before = ModuleSummary.from_module(compile_source(MOD_A, "a"))
        after = ModuleSummary.from_module(
            compile_source(MOD_A.replace("v * 2", "v * 3"), "a")
        )
        assert before.fingerprint() != after.fingerprint()

    def test_global_init_changes_fingerprint(self):
        before = ModuleSummary.from_module(compile_source(MOD_A, "a"))
        after = ModuleSummary.from_module(
            compile_source(MOD_A.replace("counter = 0", "counter = 1"), "a")
        )
        assert before.fingerprint() != after.fingerprint()

    def test_dict_roundtrip(self):
        summary = ModuleSummary.from_module(compile_source(MOD_A, "a"))
        restored = ModuleSummary.from_dict(summary.to_dict())
        assert restored.module_name == summary.module_name
        assert restored.signatures == summary.signatures
        assert restored.body_hashes == summary.body_hashes
        assert restored.globals == summary.globals
        assert restored.fingerprint() == summary.fingerprint()


class TestRoutineFactsCopy:
    def test_the_copy_owns_its_profile_view(self):
        routine = _routine(MOD_A, "a", "bump")
        facts = extract_routine_facts(
            routine, view=ProfileView.static_estimate(routine)
        )
        before = facts.to_dict()
        dup = facts.copy()
        assert dup.to_dict() == before
        assert dup.view is not facts.view
        label = routine.blocks[0].label
        dup.view.merge_blocks(label, label)
        dup.view.set_edge("x", "y", 7)
        dup.sites.clear()
        dup.mod.add("elsewhere")
        assert facts.to_dict() == before
