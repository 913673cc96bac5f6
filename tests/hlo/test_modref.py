"""Unit tests for interprocedural mod/ref analysis."""

from repro.frontend import compile_sources
from repro.hlo.analysis.modref import ModRefAnalysis, direct_modref

SOURCES = {
    "m": """
global counter = 0;
global data[4];

func pure_add(a, b) { return a + b; }
func reads_counter() { return counter; }
func writes_counter() { counter = counter + 1; return counter; }
func touches_array(i) { data[i] = data[i] + 1; return data[i]; }
func calls_writer() { return writes_counter(); }
func calls_pure() { return pure_add(1, 2); }
func calls_unknown() { return mystery_fn(); }
func main() { return calls_writer() + calls_pure(); }
"""
}


def analysis():
    program = compile_sources(SOURCES)
    routines = [r for r in program.all_routines()]
    return ModRefAnalysis.analyze(routines)


class TestDirect:
    def test_pure(self):
        program = compile_sources(SOURCES)
        info = direct_modref(program.routine("pure_add"))
        assert not info.mod and not info.ref

    def test_read_only(self):
        program = compile_sources(SOURCES)
        info = direct_modref(program.routine("reads_counter"))
        assert info.ref == {"counter"} and not info.mod

    def test_array_counts_whole_symbol(self):
        program = compile_sources(SOURCES)
        info = direct_modref(program.routine("touches_array"))
        assert "data" in info.mod and "data" in info.ref


class TestTransitive:
    def test_caller_inherits_callee_effects(self):
        result = analysis()
        info = result.for_routine("calls_writer")
        assert "counter" in info.mod

    def test_pure_call_chain(self):
        result = analysis()
        assert result.for_routine("calls_pure").is_pure()

    def test_unknown_callee_poisons(self):
        result = analysis()
        info = result.for_routine("calls_unknown")
        assert info.unknown
        assert info.writes("anything")
        assert info.reads("anything")

    def test_unknown_does_not_leak_to_siblings(self):
        result = analysis()
        assert not result.for_routine("calls_pure").unknown

    def test_missing_routine_is_unknown(self):
        result = analysis()
        assert result.for_routine("never_heard_of").unknown


class TestQueries:
    def test_never_written_globals(self):
        sources = {
            "m": """
global ro = 42;
global rw = 0;
func f() { rw = rw + ro; return rw; }
func main() { return f(); }
"""
        }
        program = compile_sources(sources)
        result = ModRefAnalysis.analyze(program.all_routines())
        never = result.never_written_globals(["ro", "rw"])
        assert never == {"ro"}

    def test_never_written_empty_when_unknown_present(self):
        result = analysis()
        assert result.never_written_globals(["counter", "data"]) == set()

    def test_pure_routines(self):
        result = analysis()
        pure = result.pure_routines()
        assert "pure_add" in pure
        assert "reads_counter" in pure  # reads, never writes
        assert "writes_counter" not in pure

    def test_call_may_write(self):
        result = analysis()
        assert result.call_may_write("writes_counter", "counter")
        assert not result.call_may_write("pure_add", "counter")

    def test_from_direct_does_not_mutate_inputs(self):
        program = compile_sources(SOURCES)
        direct = {
            r.name: direct_modref(r) for r in program.all_routines()
        }
        callees = {r.name: r.callees() for r in program.all_routines()}
        before = {name: set(info.mod) for name, info in direct.items()}
        ModRefAnalysis.from_direct(direct, callees)
        after = {name: set(info.mod) for name, info in direct.items()}
        assert before == after
