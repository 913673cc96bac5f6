"""Unit tests for modules and whole programs."""

import pytest

from repro.frontend import compile_sources
from repro.ir.builder import IRBuilder
from repro.ir.errors import SymbolError
from repro.ir.module import Module
from repro.ir.program import Program
from repro.ir.routine import Routine


def simple_routine(name, callee=None):
    routine = Routine(name, n_params=0)
    builder = IRBuilder(routine)
    value = builder.const(1)
    if callee:
        value = builder.call(callee, [value])
    builder.ret(value)
    return builder.finish()


class TestModule:
    def test_add_routine_sets_module(self):
        module = Module("m")
        routine = module.add_routine(simple_routine("f"))
        assert routine.module_name == "m"
        assert module.symtab.routine_names == ["f"]

    def test_duplicate_routine(self):
        module = Module("m")
        module.add_routine(simple_routine("f"))
        with pytest.raises(SymbolError):
            module.add_routine(simple_routine("f"))

    def test_source_lines_fallback_to_routines(self):
        module = Module("m")
        routine = simple_routine("f")
        routine.source_lines = 12
        module.add_routine(routine)
        assert module.source_lines == 12
        module.source_lines = 100
        assert module.source_lines == 100

    def test_external_callees(self):
        module = Module("m")
        module.add_routine(simple_routine("f", callee="g"))
        module.add_routine(simple_routine("g", callee="outside"))
        assert module.external_callees() == ["outside"]

    def test_copy_is_deep(self):
        module = Module("m")
        module.define_global("x", init=[3])
        module.add_routine(simple_routine("f"))
        clone = module.copy()
        clone.routines["f"].blocks[0].instrs[0].imm = 42
        clone.symtab.globals["x"].init = (9,)
        assert module.routines["f"].blocks[0].instrs[0].imm == 1
        assert module.symtab.globals["x"].init == (3,)

    def test_view_owns_its_structure_and_borrows_the_bodies(self):
        module = Module("m", source_lines=7)
        module.define_global("x", init=[3])
        module.add_routine(simple_routine("f"))
        module.add_routine(simple_routine("g"))
        view = module.view()
        assert view.name == "m" and view.source_lines == 7
        assert view.routines["f"] is module.routines["f"]
        del view.routines["g"]
        view.symtab.routine_names.remove("g")
        view.symtab.globals["x"].init = (9,)
        assert list(module.routines) == ["f", "g"]
        assert module.symtab.routine_names == ["f", "g"]
        assert module.symtab.globals["x"].init == (3,)


class TestProgram:
    def test_routine_resolution(self):
        m1 = Module("m1")
        m1.add_routine(simple_routine("f"))
        m2 = Module("m2")
        m2.add_routine(simple_routine("main", callee="f"))
        program = Program([m1, m2])
        assert program.routine("f").module_name == "m1"
        assert program.entry().name == "main"
        assert program.find_routine("nope") is None

    def test_duplicate_module(self):
        program = Program([Module("m")])
        with pytest.raises(SymbolError):
            program.add_module(Module("m"))

    def test_check_resolved(self):
        module = Module("m")
        module.add_routine(simple_routine("main", callee="missing"))
        program = Program([module])
        assert program.check_resolved() == ["missing"]

    def test_symtab_rebuilt_after_module_added(self):
        program = Program([])
        m1 = Module("m1")
        m1.add_routine(simple_routine("f"))
        program.add_module(m1)
        assert program.symtab.has_routine("f")
        m2 = Module("m2")
        m2.add_routine(simple_routine("g"))
        program.add_module(m2)
        assert program.symtab.has_routine("g")

    def test_static_symbols_qualified(self):
        program = compile_sources(
            {
                "a": "static func helper(x) { return x + 1; }\n"
                     "func use_a() { return helper(1); }",
                "b": "static func helper(x) { return x + 2; }\n"
                     "func main() { return use_a() + helper(1); }",
            }
        )
        # Two distinct statics coexist.
        assert program.symtab.has_routine("a::helper")
        assert program.symtab.has_routine("b::helper")
        assert program.check_resolved() == []

    def test_source_and_instr_counts(self, calc_sources):
        program = compile_sources(calc_sources)
        assert program.source_lines() > 20
        assert program.instr_count() > 40
