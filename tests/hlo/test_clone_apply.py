"""Tests for clone creation and application (plan, facts, register,
replay)."""

from repro.frontend import compile_sources
from repro.hlo.driver import HighLevelOptimizer
from repro.hlo.transforms import clone as clone_transform
from repro.hlo.transforms.clone import (
    clone_facts,
    make_clone,
    plan_clones,
    register_clones,
)
from repro.interp import run_program
from repro.ir import Opcode, assert_valid_program

SOURCES = {
    "m": """
func kernel(mode, x) {
    if (mode == 0) { return x * 2; }
    if (mode == 1) { return x * 3; }
    return x;
}
func fast_path(x) { return kernel(0, x); }
func slow_path(x) { return kernel(1, x); }
func dynamic_path(x, m) { return kernel(m, x); }
func main() {
    return fast_path(5) * 100 + slow_path(5) * 10 + dynamic_path(5, 2);
}
"""
}


class TestMakeClone:
    def test_bindings_at_entry(self):
        kernel = compile_sources(SOURCES).routine("kernel")
        clone = make_clone(kernel, ((0, 0),), "kernel::cl0")
        first = clone.entry.instrs[0]
        assert first.op is Opcode.CONST
        assert first.dst == 0 and first.imm == 0
        assert not clone.exported
        assert clone.annotations["cloned_from"] == "kernel"

    def test_original_untouched(self):
        kernel = compile_sources(SOURCES).routine("kernel")
        before = kernel.instr_count()
        make_clone(kernel, ((0, 0), (1, 9)), "kernel::cl1")
        assert kernel.instr_count() == before


class TestApplyClones:
    def decide(self, wpa):
        harness = wpa(SOURCES)
        decisions = plan_clones(harness.ctx, harness.names, harness.facts)
        created = clone_facts(harness.ctx, decisions, harness.facts,
                              harness.plan)
        register_clones(harness.ctx, harness.unit, created, harness.facts)
        return harness, decisions, created

    def test_end_to_end(self, wpa):
        reference = run_program(compile_sources(SOURCES)).value
        harness, decisions, created = self.decide(wpa)
        assert decisions, "disagreeing constant sites exist"
        assert created
        program = harness.replay()
        assert_valid_program(program)
        assert run_program(program).value == reference
        # The fast path now calls a clone.
        fast = program.routine("fast_path")
        callee = fast.call_sites()[0][2]
        assert "::cl" in callee

    def test_clone_cap(self, wpa, monkeypatch):
        monkeypatch.setattr(clone_transform, "MAX_CLONES", 0)
        harness, decisions, created = self.decide(wpa)
        assert decisions
        assert created == []
        assert harness.plan.is_empty()


def test_a_clone_has_a_handle_only_once_replay_made_its_body():
    """The WPA records a clone in the unit's name order, not among its
    handles: every handle the unit holds after the WPA is a real one,
    replay adds each clone's, and the clones land in the program in
    the unit's order."""
    program = compile_sources(SOURCES)
    hlo = HighLevelOptimizer(program)
    result = hlo.optimize(run_scalar=False)
    unit = result.unit
    assert result.clones
    assert None not in unit.routine_handles.values()
    assert set(result.clones).isdisjoint(unit.routine_handles)
    assert unit.routine_names()[-len(result.clones):] == result.clones
    hlo.run_scalar_phase(result)
    assert set(result.clones) <= set(unit.routine_handles)
    assert list(program.modules["m"].routines)[-len(result.clones):] \
        == result.clones
