"""The simulator against its execution spec.

``repro.vm.machine.Machine`` runs an image with its per-run state in
locals; ``reference_machine.ReferenceMachine`` is the loop it replaced.
On every image, cost model and trap below the two must return equal
``MachineResult``s, field by field, or raise the same exception type
with the same message.
"""

from __future__ import annotations

import pytest

from reference_machine import ReferenceMachine
from repro.driver.compiler import Compiler
from repro.driver.options import VALID_OPT_LEVELS, CompilerOptions
from repro.ir.instructions import Opcode
from repro.ir.symbols import GlobalVar
from repro.linker.link import build_image
from repro.synth import generate, tiny_config
from repro.vm.cost import CostModel
from repro.vm.image import MachineRoutine
from repro.vm.isa import REG_RV, MInstr, MOp
from repro.vm.machine import Machine, MachineError, MachineResult


def outcome(machine_class, image, inputs=None, cost_model=None, **limits):
    """Every ``MachineResult`` field, or the trap's type and message."""
    try:
        result = machine_class(image, cost_model, **limits).run(inputs)
    except Exception as trap:  # noqa: BLE001 -- the trap is the outcome
        return ("trap", type(trap), str(trap))
    return {name: getattr(result, name) for name in MachineResult.__slots__}


def assert_same(image, inputs=None, cost_model=None, **limits):
    fast = outcome(Machine, image, inputs, cost_model, **limits)
    spec = outcome(ReferenceMachine, image, inputs, cost_model, **limits)
    assert fast == spec
    return fast


# -- Compiled programs ------------------------------------------------------------


@pytest.fixture(scope="module")
def app():
    return generate(tiny_config())


#: Every level a build takes, and ``+I`` wherever it is allowed (not at
#: ``+O4``: a profile feeds ``+O4``, it is not gathered there).
SHAPES = [(level, False) for level in VALID_OPT_LEVELS] + [
    (level, True) for level in VALID_OPT_LEVELS if level != 4
]


@pytest.fixture(scope="module")
def compiled(app):
    """``compiled(level, instrument)``: the app's image, built once."""
    images = {}

    def image(opt_level, instrument):
        if (opt_level, instrument) not in images:
            options = CompilerOptions(opt_level=opt_level,
                                      instrument=instrument)
            images[opt_level, instrument] = (
                Compiler(options).build(app.sources).executable)
        return images[opt_level, instrument]

    return image


@pytest.mark.parametrize(
    "opt_level,instrument", SHAPES,
    ids=["O%d%s" % (level, "+I" if instrument else "")
         for level, instrument in SHAPES],
)
def test_compiled_programs_run_alike(app, compiled, opt_level, instrument):
    result = assert_same(compiled(opt_level, instrument),
                         app.make_input(seed=3))
    assert result["instructions"] > 0
    assert any(result["probe_counts"]) == instrument


COST_MODELS = {
    "no-icache": CostModel(icache_enabled=False),
    "tiny-icache": CostModel(icache_lines=4, icache_line_words=2,
                             icache_miss_penalty=7),
    "one-word-lines": CostModel(icache_lines=3, icache_line_words=1),
    "penalties": CostModel(base_cycles=2, mul_cycles=5, div_cycles=13,
                           load_cycles=4, store_cycles=3, load_use_stall=6,
                           taken_branch_penalty=5, call_overhead=17,
                           ret_overhead=9, icache_miss_penalty=21),
    "free": CostModel(base_cycles=0, mul_cycles=0, div_cycles=0,
                      load_cycles=0, store_cycles=0, load_use_stall=0,
                      taken_branch_penalty=0, call_overhead=0,
                      ret_overhead=0, icache_miss_penalty=0),
}


@pytest.mark.parametrize("name", sorted(COST_MODELS))
def test_cost_models_charge_alike(app, compiled, name):
    assert_same(compiled(2, True), app.make_input(seed=4),
                COST_MODELS[name])


def test_load_use_stalls_are_charged_alike():
    # Each kind of load is followed by a consumer of what it loaded.
    var = GlobalVar("g", init=[3], defining_module="test")
    arr = GlobalVar("a", size=2, init=[4, 5], defining_module="test")
    image = build_image([
        MachineRoutine("main", [
            MInstr(MOp.LDG, rd=1, sym="g"),
            MInstr(MOp.ALU3, subop=Opcode.ADD, rd=2, rs1=1, rs2=1),
            MInstr(MOp.LDI, rd=3, imm=1),
            MInstr(MOp.LDX, rd=4, rs1=3, sym="a"),
            MInstr(MOp.ALU3, subop=Opcode.MUL, rd=5, rs1=2, rs2=4),
            MInstr(MOp.STS, rs1=5, imm=0),
            MInstr(MOp.LDS, rd=6, imm=0),
            MInstr(MOp.MOVR, rd=REG_RV, rs1=6),
            MInstr(MOp.RET),
        ], n_params=0, frame_size=1, source_module="test"),
    ], [var, arr])
    result = assert_same(image)
    assert result["value"] == 30
    assert result["load_use_stalls"] == 3


# -- Traps ------------------------------------------------------------------------


def routine(name, instrs, n_params=0, frame_size=None):
    return MachineRoutine(
        name, instrs, n_params=n_params,
        frame_size=n_params if frame_size is None else frame_size,
        source_module="test",
    )


def double():
    return routine("double", [
        MInstr(MOp.LDS, rd=1, imm=0),
        MInstr(MOp.ALU3, subop=Opcode.ADD, rd=REG_RV, rs1=1, rs2=1),
        MInstr(MOp.RET),
    ], n_params=1)


def spin_image():
    image = build_image([routine("main", [
        MInstr(MOp.LDI, rd=1, imm=0),
        MInstr(MOp.BF, rs1=1, imm=0),
        MInstr(MOp.RET),
    ])], [])
    branch = image.routine_meta["main"].addr + 1
    image.code[branch] = MInstr(MOp.BF, rs1=1, imm=branch)
    return image


def array_image(op, index):
    var = GlobalVar("a", size=2, defining_module="test")
    access = (MInstr(MOp.LDX, rd=REG_RV, rs1=1, sym="a") if op is MOp.LDX
              else MInstr(MOp.STX, rs1=1, rs2=1, sym="a"))
    return build_image([routine("main", [
        MInstr(MOp.LDI, rd=1, imm=index), access, MInstr(MOp.RET),
    ])], [var])


def arity_image():
    return build_image([
        routine("main", [MInstr(MOp.CALL, sym="double"), MInstr(MOp.RET)]),
        double(),
    ], [])


def depth_image():
    return build_image([
        routine("main", [MInstr(MOp.CALL, sym="spin"), MInstr(MOp.RET)]),
        routine("spin", [MInstr(MOp.CALL, sym="spin"), MInstr(MOp.RET)]),
    ], [])


def non_routine_image():
    image = build_image([routine("main", [
        MInstr(MOp.LDI, rd=REG_RV, imm=1), MInstr(MOp.RET),
    ])], [])
    image.code[0] = MInstr(MOp.CALL, imm=1)  # the stub's HALT
    return image


def empty_stack_image():
    image = build_image([routine("main", [
        MInstr(MOp.LDI, rd=REG_RV, imm=1), MInstr(MOp.RET),
    ])], [])
    image.code[1] = MInstr(MOp.RET)  # main returns into a RET, not HALT
    return image


TRAPS = {
    "budget": (spin_image, {"max_instructions": 500}, "budget"),
    "ldx-above": (lambda: array_image(MOp.LDX, 2), {}, "array load"),
    "ldx-below": (lambda: array_image(MOp.LDX, -1), {}, "array load"),
    "stx-above": (lambda: array_image(MOp.STX, 5), {}, "array store"),
    "stx-below": (lambda: array_image(MOp.STX, -3), {}, "array store"),
    "arity": (arity_image, {}, "interface mismatch"),
    "depth": (depth_image, {"max_depth": 40}, "stack overflow"),
    "non-routine-call": (non_routine_image, {}, "non-routine"),
    "empty-stack-ret": (empty_stack_image, {}, "empty call stack"),
}


@pytest.mark.parametrize("name", sorted(TRAPS))
def test_traps_are_raised_alike(name):
    make, limits, message = TRAPS[name]
    trap = assert_same(make(), **limits)
    assert trap[0] == "trap" and message in trap[2]


@pytest.mark.parametrize("max_depth", [3, 4])
def test_the_depth_limit_falls_alike(max_depth):
    # The stub's frame, main, f and g: g's frame is the fourth.
    image = build_image([
        routine("main", [MInstr(MOp.CALL, sym="f"), MInstr(MOp.RET)]),
        routine("f", [MInstr(MOp.CALL, sym="g"), MInstr(MOp.RET)]),
        routine("g", [MInstr(MOp.LDI, rd=REG_RV, imm=5), MInstr(MOp.RET)]),
    ], [])
    result = assert_same(image, max_depth=max_depth)
    if max_depth == 3:
        assert result == ("trap", MachineError, "call stack overflow at g")
    else:
        assert result["value"] == 5


def test_an_oversized_input_is_refused_alike():
    image = array_image(MOp.LDX, 0)
    trap = assert_same(image, inputs={"a": [1, 2, 3]})
    assert trap[0] == "trap" and "array holds 2" in trap[2]
