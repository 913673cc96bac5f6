"""Unit tests for loop-invariant code motion."""

import json
import os
import subprocess
import sys

import repro
from repro.frontend import compile_sources
from repro.hlo.analysis.modref import ModRefAnalysis
from repro.hlo.options import HloOptions
from repro.hlo.passes import OptContext
from repro.hlo.transforms.licm import LoopInvariantCodeMotion
from repro.interp import run_program
from repro.ir import Opcode, assert_valid_routine


def run_licm(sources, routine_name, options=None):
    program = compile_sources(sources)
    ctx = OptContext(program.symtab, options or HloOptions())
    ctx.modref = ModRefAnalysis.analyze(program.all_routines())
    routine = program.routine(routine_name)
    changed = LoopInvariantCodeMotion().run(routine, ctx)
    assert_valid_routine(routine)
    return program, routine, changed


def loop_body_ops(routine):
    """Ops inside loop bodies (any block reachable from a back edge)."""
    from repro.hlo.analysis.loops import find_loops

    ops = []
    for loop in find_loops(routine):
        for label in loop.body:
            ops.extend(i.op for i in routine.block(label).instrs)
    return ops


INVARIANT_MUL = {
    "m": """
func f(n, a, b) {
    var s = 0;
    for (var i = 0; i < n; i = i + 1) {
        s = s + a * b;
    }
    return s;
}
func main() { return f(10, 3, 4); }
"""
}


class TestHoisting:
    def test_invariant_multiply_leaves_loop(self):
        reference = run_program(compile_sources(INVARIANT_MUL)).value
        program, routine, changed = run_licm(INVARIANT_MUL, "f")
        assert changed
        assert Opcode.MUL not in loop_body_ops(routine)
        assert run_program(program).value == reference

    def test_disabled_by_option(self):
        _, _, changed = run_licm(
            INVARIANT_MUL, "f", HloOptions(licm_enabled=False)
        )
        assert not changed

    def test_variant_value_stays(self):
        sources = {
            "m": """
func f(n) {
    var s = 0;
    for (var i = 0; i < n; i = i + 1) {
        s = s + i * i;
    }
    return s;
}
func main() { return f(10); }
"""
        }
        reference = run_program(compile_sources(sources)).value
        program, routine, _ = run_licm(sources, "f")
        assert Opcode.MUL in loop_body_ops(routine)
        assert run_program(program).value == reference

    def test_invariant_chain_hoists_together(self):
        sources = {
            "m": """
func f(n, a) {
    var s = 0;
    for (var i = 0; i < n; i = i + 1) {
        var t = a * 3;
        var u = t + 7;
        s = s + u;
    }
    return s;
}
func main() { return f(5, 2); }
"""
        }
        reference = run_program(compile_sources(sources)).value
        program, routine, changed = run_licm(sources, "f")
        assert changed
        body_ops = loop_body_ops(routine)
        assert Opcode.MUL not in body_ops
        assert run_program(program).value == reference

    def test_zero_trip_loop_safe(self):
        """Hoisted code speculatively runs even when the loop does not."""
        sources = {
            "m": """
func f(n, a, b) {
    var s = 1;
    for (var i = 0; i < n; i = i + 1) {
        s = s + a / b;
    }
    return s;
}
func main() { return f(0, 5, 0); }
"""
        }
        reference = run_program(compile_sources(sources)).value
        program, _, _ = run_licm(sources, "f")
        assert run_program(program).value == reference == 1


class TestGlobalLoads:
    def test_readonly_global_load_hoisted(self):
        sources = {
            "m": """
global g = 9;
func f(n) {
    var s = 0;
    for (var i = 0; i < n; i = i + 1) {
        s = s + g;
    }
    return s;
}
func main() { return f(4); }
"""
        }
        reference = run_program(compile_sources(sources)).value
        program, routine, changed = run_licm(sources, "f")
        assert changed
        assert Opcode.LOADG not in loop_body_ops(routine)
        assert run_program(program).value == reference

    def test_stored_global_not_hoisted(self):
        sources = {
            "m": """
global g = 1;
func f(n) {
    var s = 0;
    for (var i = 0; i < n; i = i + 1) {
        s = s + g;
        g = g + 1;
    }
    return s;
}
func main() { return f(4); }
"""
        }
        reference = run_program(compile_sources(sources)).value
        program, routine, _ = run_licm(sources, "f")
        assert Opcode.LOADG in loop_body_ops(routine)
        assert run_program(program).value == reference

    def test_call_clobbered_global_not_hoisted(self):
        sources = {
            "m": """
global g = 1;
func bump() { g = g + 1; return 0; }
func f(n) {
    var s = 0;
    for (var i = 0; i < n; i = i + 1) {
        s = s + g;
        bump();
    }
    return s;
}
func main() { return f(4); }
"""
        }
        reference = run_program(compile_sources(sources)).value
        program, routine, _ = run_licm(sources, "f")
        assert Opcode.LOADG in loop_body_ops(routine)
        assert run_program(program).value == reference

    def test_pure_call_does_not_block_hoist(self):
        sources = {
            "m": """
global g = 9;
func pure(a) { return a + 1; }
func f(n) {
    var s = 0;
    for (var i = 0; i < n; i = i + 1) {
        s = s + g + pure(i);
    }
    return s;
}
func main() { return f(4); }
"""
        }
        reference = run_program(compile_sources(sources)).value
        program, routine, changed = run_licm(sources, "f")
        assert changed
        assert Opcode.LOADG not in loop_body_ops(routine)
        assert run_program(program).value == reference


class TestNestedLoops:
    def test_inner_invariant_hoisted_outward(self):
        sources = {
            "m": """
func f(n, a) {
    var s = 0;
    for (var i = 0; i < n; i = i + 1) {
        for (var j = 0; j < n; j = j + 1) {
            s = s + a * 13;
        }
    }
    return s;
}
func main() { return f(4, 2); }
"""
        }
        reference = run_program(compile_sources(sources)).value
        program, routine, changed = run_licm(sources, "f")
        assert changed
        from repro.hlo.analysis.loops import find_loops

        inner = find_loops(routine)[0]
        inner_ops = [
            i.op
            for label in inner.body
            for i in routine.block(label).instrs
        ]
        assert Opcode.MUL not in inner_ops
        assert run_program(program).value == reference


#: Builds one synthetic program at +O4 and prints how many mod/ref
#: queries were made and a digest of the image.
_COUNT_QUERIES = """
import hashlib, json
from repro.driver.compiler import Compiler
from repro.driver.options import CompilerOptions
from repro.hlo.analysis.modref import ModRefAnalysis
from repro.linker.objects import encode_executable
from repro.synth import WorkloadConfig, generate

queries = [0]
for_routine = ModRefAnalysis.for_routine

def counted(self, name):
    queries[0] += 1
    return for_routine(self, name)

ModRefAnalysis.for_routine = counted
app = generate(WorkloadConfig("licm", n_modules=6, routines_per_module=4,
                              n_features=3, dispatch_count=50,
                              input_size=8, seed=7))
build = Compiler(CompilerOptions(opt_level=4)).build(app.sources)
print(json.dumps([queries[0], hashlib.sha256(
    encode_executable(build.executable)).hexdigest()]))
"""


class TestTheHashSeed:
    def test_licm_queries_do_not_depend_on_it(self):
        """A loop body is a set of labels: walked in hash order, the
        first global writer LICM finds, and so the mod/ref queries it
        makes before it, changed with ``PYTHONHASHSEED`` (28 to 36 on
        this program).  The image never did."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        runs = set()
        for seed in range(4):
            env = dict(os.environ, PYTHONHASHSEED=str(seed),
                       PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", _COUNT_QUERIES], env=env,
                check=True, capture_output=True, text=True,
            ).stdout
            runs.add(tuple(json.loads(out)))
        assert len(runs) == 1, sorted(runs)
