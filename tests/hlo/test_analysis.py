"""Unit tests for HLO analyses: CFG, dominators, liveness, loops."""

from repro.frontend import compile_source
from repro.hlo.analysis.cfg import reachable_labels, reverse_postorder
from repro.hlo.analysis.dominators import dominates, immediate_dominators
from repro.hlo.analysis.liveness import liveness
from repro.hlo.analysis.loops import find_loops, loop_depths
from repro.ir import IRBuilder, Instr, Opcode, Routine
from repro.ir.liveness import regs_in


def routine_from(source, name):
    return compile_source(source, "m").routines[name]


LOOP_SRC = """
func f(n) {
    var s = 0;
    for (var i = 0; i < n; i = i + 1) {
        if (i % 2 == 0) { s = s + i; }
        var j = 0;
        while (j < 3) { s = s + 1; j = j + 1; }
    }
    return s;
}
"""


class TestCfg:
    def test_rpo_starts_at_entry(self):
        routine = routine_from(LOOP_SRC, "f")
        rpo = reverse_postorder(routine)
        assert rpo[0] == routine.entry.label

    def test_rpo_covers_reachable(self):
        routine = routine_from(LOOP_SRC, "f")
        assert set(reverse_postorder(routine)) == reachable_labels(routine)

    def test_unreachable_excluded(self):
        routine = Routine("g", n_params=0)
        builder = IRBuilder(routine)
        dead = builder.new_block("dead")
        builder.ret(builder.const(1))
        builder.position_at(dead)
        builder.ret(builder.const(2))
        routine = builder.finish()
        assert "dead1" not in reachable_labels(routine)


class TestDominators:
    def test_entry_dominates_all(self):
        routine = routine_from(LOOP_SRC, "f")
        entry = routine.entry.label
        for label in reachable_labels(routine):
            assert dominates(routine, entry, label)

    def test_entry_has_no_idom(self):
        routine = routine_from(LOOP_SRC, "f")
        idom = immediate_dominators(routine)
        assert idom[routine.entry.label] is None

    def test_branch_targets_dominated_by_branch_block(self):
        routine = routine_from(
            "func f(a) { if (a) { return 1; } return 2; }", "f"
        )
        idom = immediate_dominators(routine)
        entry = routine.entry.label
        for block in routine.blocks:
            if block.label != entry and block.label in idom:
                assert dominates(routine, entry, block.label)

    def test_immediate_dominators_form_a_tree(self):
        routine = routine_from(LOOP_SRC, "f")
        idom = immediate_dominators(routine)
        assert [b for b, parent in idom.items() if parent is None] == [
            routine.entry.label
        ]
        for label in idom:  # every chain ends at the entry
            assert dominates(routine, routine.entry.label, label)


class TestLiveness:
    def test_param_live_at_entry_when_used(self):
        routine = routine_from("func f(a) { return a + 1; }", "f")
        info = liveness(routine)
        assert 0 in regs_in(info.live_in[routine.entry.label])

    def test_dead_value_not_live(self):
        routine = Routine("g", n_params=0)
        builder = IRBuilder(routine)
        dead = builder.const(99)
        live = builder.const(1)
        builder.ret(live)
        routine = builder.finish()
        info = liveness(routine)
        label = routine.entry.label
        # Neither value crosses a block boundary; only the returned one
        # is read at all.
        assert info.live_out[label] == 0
        assert regs_in(info.defs[label]) == [dead, live]
        assert info.use[label] == 0 and info.live_in[label] == 0

    def test_loop_carried_liveness(self):
        routine = routine_from(LOOP_SRC, "f")
        info = liveness(routine)
        # The accumulator register must be live around the loop head.
        head = [b.label for b in routine.blocks if "for_head" in b.label][0]
        assert info.live_in[head]


class TestLoops:
    def test_two_nested_loop_levels(self):
        routine = routine_from(LOOP_SRC, "f")
        loops = find_loops(routine)
        assert len(loops) == 2

    def test_loop_depths(self):
        routine = routine_from(LOOP_SRC, "f")
        depths = loop_depths(routine)
        assert depths[routine.entry.label] == 0
        inner_head = [l for l in depths if "loop_head" in l][0]
        assert depths[inner_head] >= 1

    def test_no_loops_in_straight_line(self):
        routine = routine_from("func f() { return 3; }", "f")
        assert find_loops(routine) == []
