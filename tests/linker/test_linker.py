"""Unit tests for object files, clustering and image building."""

import pytest

from repro.frontend import compile_source, compile_sources
from repro.interp import run_program
from repro.linker.clustering import cluster_routines
from repro.linker.link import build_image, check_interfaces
from repro.linker.objects import KIND_CODE, KIND_IL, LinkError, ObjectFile
from repro.llo.driver import LloOptions, LowLevelOptimizer
from repro.naim.compaction import routines_equal
from repro.vm.machine import run_image

MODULE_SRC = """
global counter = 0;
static global tab[4] = {2, 4, 6, 8};

func visible(a) {
    counter = counter + tab[a % 4];
    return counter;
}

static func helper(x) { return x * 2; }

func top(n) {
    var s = 0;
    while (n > 0) { s = s + helper(visible(n)); n = n - 1; }
    return s + external_thing(s);
}
"""


def il_object():
    module = compile_source(MODULE_SRC, "mod")
    return ObjectFile.from_il_module(module, source_fingerprint="abc123")


def code_object():
    module = compile_source(MODULE_SRC, "mod")
    llo = LowLevelOptimizer(LloOptions(2))
    machines = [llo.compile_routine(r) for r in module.routine_list()]
    return ObjectFile.from_machine_routines(
        module, machines, source_fingerprint="abc123", opt_summary="+O2"
    )


class TestObjectFiles:
    def test_il_object_symbols(self):
        obj = il_object()
        assert obj.kind == KIND_IL
        assert "top" in obj.defined_routines()
        assert "mod::helper" in obj.defined_routines()
        assert "external_thing" in obj.referenced_routines

    def test_code_object_symbols(self):
        obj = code_object()
        assert obj.kind == KIND_CODE
        assert "external_thing" in obj.referenced_routines
        names = {v.name for v in obj.defined_globals()}
        assert names == {"counter", "mod::tab"}

    def test_il_serialization_round_trip(self):
        obj = il_object()
        restored = ObjectFile.from_bytes(obj.to_bytes())
        assert restored.kind == KIND_IL
        assert restored.source_fingerprint == "abc123"
        assert restored.defined_routines() == obj.defined_routines()
        for name, routine in obj.il_module.routines.items():
            assert routines_equal(routine, restored.il_module.routines[name])
        tab = restored.il_module.symtab.globals["mod::tab"]
        assert tab.init == (2, 4, 6, 8)

    def test_code_serialization_round_trip(self):
        obj = code_object()
        restored = ObjectFile.from_bytes(obj.to_bytes())
        assert restored.kind == KIND_CODE
        assert len(restored.machine_routines) == len(obj.machine_routines)
        original = obj.machine_routines[0]
        copy = restored.machine_routines[0]
        assert copy.name == original.name
        assert copy.frame_size == original.frame_size
        assert len(copy.instrs) == len(original.instrs)
        for a, b in zip(original.instrs, copy.instrs):
            assert (a.op, a.subop, a.rd, a.rs1, a.rs2, a.imm, a.imm2, a.sym) \
                == (b.op, b.subop, b.rd, b.rs1, b.rs2, b.imm, b.imm2, b.sym)

    def test_fingerprint_stability(self):
        assert ObjectFile.fingerprint("x") == ObjectFile.fingerprint("x")
        assert ObjectFile.fingerprint("x") != ObjectFile.fingerprint("y")

    def test_bad_kind_rejected(self):
        with pytest.raises(LinkError):
            ObjectFile("m", "weird")


def _il_objects(program):
    return [ObjectFile.from_il_module(m) for m in program.module_list()]


class TestInterfaceChecker:
    def test_detects_cross_module_mismatch(self):
        program = compile_sources(
            {
                "a": "func f(x, y) { return x + y; }",
                "b": "func main() { return f(1); }",
            }
        )
        problems = check_interfaces(_il_objects(program))
        assert len(problems) == 1
        assert "f" in problems[0] and "1 args" in problems[0]

    def test_clean_program(self, calc_sources):
        program = compile_sources(calc_sources)
        assert check_interfaces(_il_objects(program)) == []


class TestClustering:
    def test_hot_pair_adjacent(self):
        order = cluster_routines(
            ["a", "b", "c", "d"],
            {("a", "c"): 100, ("b", "d"): 1},
            entry="a",
        )
        assert abs(order.index("a") - order.index("c")) == 1

    def test_entry_chain_first(self):
        order = cluster_routines(
            ["x", "y", "main"],
            {("x", "y"): 50},
            entry="main",
        )
        assert order[0] == "main"

    def test_deterministic_on_ties(self):
        weights = {("a", "b"): 10, ("c", "d"): 10}
        order1 = cluster_routines(["a", "b", "c", "d"], weights)
        order2 = cluster_routines(["a", "b", "c", "d"], weights)
        assert order1 == order2

    def test_all_routines_present_once(self):
        names = ["r%d" % i for i in range(10)]
        weights = {("r0", "r5"): 9, ("r5", "r9"): 8, ("r1", "r2"): 7}
        order = cluster_routines(names, weights)
        assert sorted(order) == sorted(names)

    def test_self_calls_ignored(self):
        order = cluster_routines(["a", "b"], {("a", "a"): 100})
        assert sorted(order) == ["a", "b"]


class TestBuildImage:
    def build(self, sources):
        program = compile_sources(sources)
        llo = LowLevelOptimizer(LloOptions(2))
        machines = []
        global_vars = []
        for module in program.module_list():
            global_vars.extend(module.symtab.globals.values())
            machines.extend(
                llo.compile_routine(r) for r in module.routine_list()
            )
        return machines, global_vars

    def test_unresolved_symbol(self):
        machines, global_vars = self.build(
            {"m": "func main() { return ghost(1); }"}
        )
        with pytest.raises(LinkError, match="unresolved routine ghost"):
            build_image(machines, global_vars)

    def test_missing_entry(self):
        machines, global_vars = self.build(
            {"m": "func not_main() { return 1; }"}
        )
        with pytest.raises(LinkError, match="undefined entry"):
            build_image(machines, global_vars)

    def test_duplicate_routine(self):
        machines1, g1 = self.build({"m1": "func main() { return 1; }"})
        machines2, _ = self.build({"m2": "func main() { return 2; }"})
        with pytest.raises(LinkError, match="duplicate routine"):
            build_image(machines1 + machines2, g1)

    def test_duplicate_global(self):
        _, g1 = self.build({"m1": "global x = 1;\nfunc main() { return x; }"})
        machines, g2 = self.build(
            {"m2": "global x = 2;\nfunc helper() { return x; }"}
        )
        machines_main, _ = self.build({"m3": "func main() { return 1; }"})
        with pytest.raises(LinkError, match="duplicate global"):
            build_image(machines + machines_main, g1 + g2)

    def test_layout_order_respected(self, calc_sources, calc_reference):
        machines, global_vars = self.build(calc_sources)
        names = [m.name for m in machines]
        reordered = list(reversed(names))
        image = build_image(machines, global_vars, layout_order=reordered)
        # Determined order (entry stub still calls main correctly).
        assert image.layout_order == reordered
        assert run_image(image).value == calc_reference

    def test_data_segment_layout(self, calc_sources):
        machines, global_vars = self.build(calc_sources)
        image = build_image(machines, global_vars)
        total = sum(v.size for v in global_vars)
        assert len(image.data_init) == total
        for var in global_vars:
            assert image.data_size[var.name] == var.size

    def test_objects_reusable_across_links(self, calc_sources,
                                           calc_reference):
        """Relinking the same machine routines twice must work (the
        linker relocates copies, not the originals)."""
        machines, global_vars = self.build(calc_sources)
        image1 = build_image(machines, global_vars)
        image2 = build_image(machines, global_vars,
                             layout_order=[m.name for m in
                                           reversed(machines)])
        assert run_image(image1).value == calc_reference
        assert run_image(image2).value == calc_reference
