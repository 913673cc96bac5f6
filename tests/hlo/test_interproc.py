"""Unit tests for IPCP, cloning and dead-function elimination."""

from repro.hlo.transforms.clone import plan_clones
from repro.hlo.transforms.dfe import eliminate_dead_functions, reachable_routines
from repro.hlo.transforms.ipcp import (
    constant_return_value,
    gather_param_constants,
    publish_interprocedural_facts,
)
from repro.interp import run_program
from repro.ir import Opcode


def const_return(wpa, source, name):
    return constant_return_value(wpa({"m": source}).facts[name])


class TestParamConstants:
    SOURCES = {
        "m": """
func uniform(a, b) { return a * b; }
func varied(a) { return a + 1; }
func main() {
    var x = uniform(10, 2) + uniform(10, 3);
    return x + varied(1) + varied(2);
}
"""
    }

    def test_uniform_param_detected(self, wpa):
        harness = wpa(self.SOURCES)
        facts = gather_param_constants(harness.names, harness.facts)
        assert facts["uniform"][0] == 10  # always 10
        assert facts["uniform"][1] is None  # 2 vs 3
        assert facts["varied"][0] is None

    def test_publish_binds_uniform_params(self, wpa):
        harness = wpa(self.SOURCES)
        reference = run_program(harness.program).value
        bound = publish_interprocedural_facts(
            harness.ctx, harness.names, harness.facts,
            harness.program.symtab.all_global_names(), harness.plan,
        )
        assert bound == {"uniform": 1}
        program = harness.replay()
        entry = program.routine("uniform").entry
        assert entry.instrs[0].op is Opcode.CONST
        assert entry.instrs[0].imm == 10
        assert run_program(program).value == reference

    def test_externally_callable_not_bound(self, wpa):
        harness = wpa(self.SOURCES)
        bound = publish_interprocedural_facts(
            harness.ctx, harness.names, harness.facts,
            harness.program.symtab.all_global_names(), harness.plan,
            externally_callable=frozenset({"uniform"}),
        )
        assert "uniform" not in bound
        assert harness.plan.is_empty()


class TestConstReturns:
    def test_constant_return_detected(self, wpa):
        source = "func five() { return 5; }\nfunc main() { return five(); }"
        assert const_return(wpa, source, "five") == 5

    def test_void_return_is_zero(self, wpa):
        source = "func nop() { return; }\nfunc main() { nop(); return 1; }"
        assert const_return(wpa, source, "nop") == 0

    def test_varying_return_not_constant(self, wpa):
        source = "func echo(a) { return a; }\nfunc main() { return echo(1); }"
        assert const_return(wpa, source, "echo") is None

    def test_mixed_paths_same_constant(self, wpa):
        source = ("func c(a) { if (a) { return 4; } return 4; }\n"
                  "func main() { return c(1); }")
        assert const_return(wpa, source, "c") == 4


class TestReadonlyGlobals:
    def test_promoted(self, wpa):
        sources = {
            "m": """
global ro = 9;
global rw = 0;
func main() { rw = ro + 1; return rw; }
"""
        }
        harness = wpa(sources)
        publish_interprocedural_facts(
            harness.ctx, ["main"], harness.facts,
            harness.program.symtab.all_global_names(), harness.plan,
        )
        assert "ro" in harness.ctx.readonly_globals
        assert "rw" not in harness.ctx.readonly_globals

    def test_externally_visible_excluded(self, wpa):
        sources = {
            "m": "global ro = 9;\nfunc main() { return ro; }"
        }
        harness = wpa(sources)
        publish_interprocedural_facts(
            harness.ctx, ["main"], harness.facts,
            harness.program.symtab.all_global_names(), harness.plan,
            externally_visible_globals=frozenset({"ro"}),
        )
        assert "ro" not in harness.ctx.readonly_globals


class TestCloning:
    SOURCES = {
        "m": """
func kernel(mode, x) {
    if (mode == 0) { return x * 2; }
    return x * 3;
}
func hot_user(x) { return kernel(0, x); }
func other_user(x, m) { return kernel(m, x); }
func main() { return hot_user(5) + other_user(5, 1); }
"""
    }

    def test_disagreeing_sites_cloned(self, wpa):
        harness = wpa(self.SOURCES)
        decisions = plan_clones(harness.ctx, harness.names, harness.facts)
        callees = [d.callee for d in decisions]
        assert "kernel" in callees
        decision = decisions[callees.index("kernel")]
        assert (0, 0) in decision.bindings

    def test_uniform_sites_not_cloned(self, wpa):
        sources = {
            "m": """
func k(a) { return a * 2; }
func u1() { return k(7); }
func u2() { return k(7); }
func main() { return u1() + u2(); }
"""
        }
        harness = wpa(sources)
        decisions = plan_clones(harness.ctx, harness.names, harness.facts)
        assert decisions == []  # IPCP handles the uniform constant


class TestDeadFunctionElim:
    SOURCES = {
        "a": """
func used(x) { return x + 1; }
func unused(x) { return x - 1; }
func unused_chain(x) { return unused(x); }
""",
        "b": "func main() { return used(1); }",
    }

    def test_reachable_set(self, wpa):
        assert reachable_routines(wpa(self.SOURCES).facts) == {"main", "used"}

    def test_elimination(self, wpa):
        harness = wpa(self.SOURCES)
        program = harness.program
        removed = eliminate_dead_functions(
            program, reachable_routines(harness.facts)
        )
        assert sorted(removed) == ["unused", "unused_chain"]
        assert "unused" not in program.modules["a"].routines
        assert run_program(program).value == 2

    def test_library_without_main_keeps_everything(self, wpa):
        sources = {"a": "func f() { return 1; }"}
        assert reachable_routines(wpa(sources).facts) is None

    def test_custom_roots(self, wpa):
        harness = wpa(self.SOURCES)
        keep = reachable_routines(
            harness.facts, roots=["main", "unused_chain"]
        )
        removed = eliminate_dead_functions(harness.program, keep)
        assert removed == []  # unused kept via unused_chain
