"""The link-time interface check against its program-walking spec.

``check_interfaces`` reads per-object call-site lists and arities
(``ObjectFile.interface``); ``reference_interfaces`` walks the whole
program.  On synthetic programs with injected arity mismatches, at call
sites and at callee declarations, both report the same problems in the
same order, with the same text.
"""

from __future__ import annotations

import random

import pytest

import reference_interfaces as reference
from repro.driver.compiler import Compiler
from repro.driver.options import CompilerOptions
from repro.frontend import compile_sources
from repro.hlo.options import HloOptions
from repro.ir.program import Program
from repro.linker.link import check_interfaces
from repro.linker.objects import ObjectFile
from repro.synth import WorkloadConfig, generate


def _program(seed):
    app = generate(WorkloadConfig(
        "iface", n_modules=5, routines_per_module=4, n_features=3,
        dispatch_count=20, input_size=8, seed=seed,
    ))
    return compile_sources(app.sources)


def _inject(program, rng, count):
    """Drop or duplicate the arguments of ``count`` random call sites
    and change the declared arity of one called routine."""
    calls = [
        instr
        for routine in program.all_routines()
        for block in routine.blocks
        for _, instr in block.calls()
    ]
    for instr in rng.sample(calls, min(count, len(calls))):
        if instr.args and rng.random() < 0.5:
            instr.args = instr.args[:-1]
        else:
            instr.args = list(instr.args) + list(instr.args[:1] or [0])
    names = sorted({instr.sym for instr in calls
                    if program.find_routine(instr.sym) is not None})
    callee = program.routine(rng.choice(names))
    callee.n_params += 1


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("count", [0, 1, 5])
def test_the_per_object_check_matches_the_program_walk(seed, count):
    program = _program(seed)
    if count:
        _inject(program, random.Random(seed * 31 + count), count)
    objects = [ObjectFile.from_il_module(module)
               for module in program.module_list()]
    expected = reference.check_interfaces(Program(program.module_list()))
    assert check_interfaces(objects) == expected
    assert bool(expected) == bool(count)


def test_an_undefined_callee_is_left_to_the_linker():
    program = compile_sources({
        "a": "func f(x, y) { return x + y; }",
        "b": "func main() { return f(1) + g(2); }",
    })
    objects = [ObjectFile.from_il_module(module)
               for module in program.module_list()]
    assert check_interfaces(objects) == reference.check_interfaces(program)
    assert check_interfaces(objects) == ["main calls f with 1 args (expects 2)"]


def test_a_cold_build_hashes_no_object_summary(monkeypatch, calc_sources):
    """The call-site lists are read from the IL, not from the module
    summary the incremental engine hashes."""
    summarised = []
    real_summary = ObjectFile.summary

    def summary(self):
        summarised.append(self.module_name)
        return real_summary(self)

    monkeypatch.setattr(ObjectFile, "summary", summary)
    # A checked link hashes every object it borrows, by design.
    options = CompilerOptions(opt_level=4, hlo=HloOptions(checked=False))
    result = Compiler(options).build(calc_sources)
    assert result.interface_problems == []
    assert summarised == []
