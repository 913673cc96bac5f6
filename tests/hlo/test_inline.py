"""Unit tests for the inliner: splicing, heuristics, limits."""

import pytest

from repro.frontend import compile_sources
from repro.hlo.options import HloOptions
from repro.hlo.transforms.inline import InlineEngine, splice_call
from repro.interp import run_program
from repro.ir import Opcode, assert_valid_routine


def program_with(sources):
    return compile_sources(sources)


class TestSpliceCall:
    SOURCES = {
        "m": """
func callee(a, b) {
    if (a > b) { return a - b; }
    return b - a;
}
func caller(x) {
    var r = callee(x, 10);
    return r + 1;
}
func main() { return caller(3) * 100 + caller(25); }
"""
    }

    def splice_first(self):
        program = program_with(self.SOURCES)
        caller = program.routine("caller")
        callee = program.routine("callee")
        block_label, index, _ = caller.call_sites()[0]
        cont = splice_call(caller, block_label, index, callee)
        return program, caller, cont

    def test_semantics_preserved(self):
        reference = run_program(program_with(self.SOURCES)).value
        program, caller, _ = self.splice_first()
        assert_valid_routine(caller)
        assert run_program(program).value == reference

    def test_call_removed(self):
        _, caller, _ = self.splice_first()
        assert caller.call_sites() == []

    def test_continuation_holds_remainder(self):
        _, caller, cont = self.splice_first()
        cont_block = caller.block(cont)
        assert cont_block.terminator.op is Opcode.RET

    def test_register_spaces_disjoint(self):
        program = program_with(self.SOURCES)
        caller = program.routine("caller")
        callee = program.routine("callee")
        before = caller.next_reg
        block_label, index, _ = caller.call_sites()[0]
        splice_call(caller, block_label, index, callee)
        assert caller.next_reg == before + callee.next_reg

    def test_annotations_record_history(self):
        _, caller, _ = self.splice_first()
        assert caller.annotations["inlined_from"] == "callee"

    def test_void_call_inlined(self):
        sources = {
            "m": """
global g = 0;
func bump() { g = g + 1; return 0; }
func main() { bump(); bump(); return g; }
"""
        }
        program = program_with(sources)
        main = program.routine("main")
        bump = program.routine("bump")
        sites = main.call_sites()
        # Inline the first site; re-find the second afterwards.
        splice_call(main, sites[0][0], sites[0][1], bump)
        assert_valid_routine(main)
        assert run_program(program).value == 2

    def test_probes_dropped_from_inlined_body(self):
        from repro.profiles import instrument_program

        program = program_with(self.SOURCES)
        instrument_program(program)
        caller = program.routine("caller")
        callee = program.routine("callee")
        block_label, index, _ = caller.call_sites()[0]
        n_probes_before = sum(
            1 for _, _, i in caller.iter_instrs() if i.op is Opcode.PROBE
        )
        splice_call(caller, block_label, index, callee)
        n_probes_after = sum(
            1 for _, _, i in caller.iter_instrs() if i.op is Opcode.PROBE
        )
        assert n_probes_after == n_probes_before


class TestEngine:
    CHAIN = {
        "a": "func leaf(x) { return x * 2; }",
        "b": "func mid(x) { return leaf(x) + 1; }",
        "c": """
func recur(n) { if (n <= 0) { return 0; } return recur(n - 1); }
func main() {
    var s = 0;
    for (var i = 0; i < 5; i = i + 1) { s = s + mid(i); }
    return s + recur(3);
}
""",
    }

    @pytest.fixture(autouse=True)
    def _harness(self, wpa):
        self.wpa = wpa

    def run_engine(self, options=None, callers=None):
        harness = self.wpa(self.CHAIN, options)
        engine = InlineEngine(harness.ctx, harness.callgraph(weight=10),
                              harness.facts, has_profiles=True,
                              plan=harness.plan)
        stats = engine.run(callers)
        return harness.replay(), stats

    def test_bottom_up_inlining(self):
        reference = run_program(program_with(self.CHAIN)).value
        program, stats = self.run_engine()
        assert stats.performed >= 2
        assert run_program(program).value == reference
        # leaf was inlined into mid before mid went into main.
        assert "leaf" in program.routine("mid").annotations.get(
            "inlined_from", ""
        )

    def test_recursive_callee_rejected(self):
        _, stats = self.run_engine()
        assert stats.rejected_recursive > 0

    def test_cross_module_counted(self):
        _, stats = self.run_engine()
        assert stats.cross_module_count() >= 2

    def test_operation_limit(self):
        options = HloOptions(inline_operation_limit=1)
        program, stats = self.run_engine(options)
        assert stats.performed == 1
        assert stats.hit_operation_limit

    def test_caller_filter(self):
        program, stats = self.run_engine(callers=["mid"])
        assert stats.performed == 1
        assert program.routine("main").call_sites()  # untouched

    def test_size_limit_rejects(self):
        options = HloOptions(inline_callee_max_instrs=0,
                             inline_hot_callee_max_instrs=0)
        _, stats = self.run_engine(options)
        assert stats.performed == 0
        assert stats.rejected_size > 0

    def test_performed_list_records_pairs(self):
        _, stats = self.run_engine()
        assert ("mid", "leaf") in stats.performed_list


class TestModulePairScheduling:
    def test_same_module_callees_grouped(self, wpa):
        sources = {
            "x": "func x1(v) { return v + 1; }\nfunc x2(v) { return v + 2; }",
            "y": "func y1(v) { return v + 3; }\nfunc y2(v) { return v + 4; }",
            "main": """
func main() {
    return y1(1) + x1(2) + y2(3) + x2(4);
}
""",
        }
        # Generous budgets: this test is about ordering, not limits.
        harness = wpa(sources, HloOptions(inline_program_growth_factor=4.0))
        engine = InlineEngine(harness.ctx, harness.callgraph(weight=5),
                              harness.facts, has_profiles=True,
                              plan=harness.plan)
        stats = engine.run(["main"])
        assert stats.performed == 4
        trace = stats.callee_module_trace
        # Grouped: each module's inlines are adjacent.
        adjacent_pairs = sum(
            1 for i in range(1, len(trace)) if trace[i] == trace[i - 1]
        )
        assert adjacent_pairs == 2  # x,x,y,y (either order)
