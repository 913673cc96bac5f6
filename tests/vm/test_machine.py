"""Unit tests for the virtual machine: functional behaviour + cycles."""

import pytest

from repro.ir.instructions import Opcode
from repro.ir.symbols import GlobalVar
from repro.linker.link import build_image
from repro.vm.cost import CostModel
from repro.vm.image import MachineRoutine
from repro.vm.isa import REG_RV, MInstr, MOp
from repro.vm.machine import Machine, MachineError, run_image


def routine(name, instrs, n_params=0, frame_size=None):
    return MachineRoutine(
        name,
        instrs,
        n_params=n_params,
        frame_size=frame_size if frame_size is not None else n_params,
        source_module="test",
    )


def simple_main(instrs, global_vars=(), extra=()):
    """Build an image whose main is the given instruction list."""
    routines = [routine("main", instrs)] + list(extra)
    return build_image(routines, list(global_vars))


class TestArithmetic:
    def test_constant_return(self):
        image = simple_main(
            [MInstr(MOp.LDI, rd=REG_RV, imm=42), MInstr(MOp.RET)]
        )
        assert run_image(image).value == 42

    def test_alu_ops(self):
        image = simple_main(
            [
                MInstr(MOp.LDI, rd=1, imm=10),
                MInstr(MOp.LDI, rd=2, imm=3),
                MInstr(MOp.ALU3, subop=Opcode.MUL, rd=3, rs1=1, rs2=2),
                MInstr(MOp.ALU2, subop=Opcode.NEG, rd=REG_RV, rs1=3),
                MInstr(MOp.RET),
            ]
        )
        assert run_image(image).value == -30

    def test_movr(self):
        image = simple_main(
            [
                MInstr(MOp.LDI, rd=5, imm=7),
                MInstr(MOp.MOVR, rd=REG_RV, rs1=5),
                MInstr(MOp.RET),
            ]
        )
        assert run_image(image).value == 7


class TestMemory:
    def test_global_scalar(self):
        var = GlobalVar("g", init=[5], defining_module="test")
        image = simple_main(
            [
                MInstr(MOp.LDG, rd=1, sym="g"),
                MInstr(MOp.LDI, rd=2, imm=1),
                MInstr(MOp.ALU3, subop=Opcode.ADD, rd=3, rs1=1, rs2=2),
                MInstr(MOp.STG, rs1=3, sym="g"),
                MInstr(MOp.LDG, rd=REG_RV, sym="g"),
                MInstr(MOp.RET),
            ],
            global_vars=[var],
        )
        result = run_image(image)
        assert result.value == 6
        assert image.global_value(result.data, "g") == 6

    def test_array_indexed(self):
        var = GlobalVar("a", size=4, init=[9, 8, 7, 6], defining_module="test")
        image = simple_main(
            [
                MInstr(MOp.LDI, rd=1, imm=2),
                MInstr(MOp.LDX, rd=REG_RV, rs1=1, sym="a"),
                MInstr(MOp.RET),
            ],
            global_vars=[var],
        )
        assert run_image(image).value == 7

    def test_array_bounds_trap(self):
        var = GlobalVar("a", size=2, defining_module="test")
        image = simple_main(
            [
                MInstr(MOp.LDI, rd=1, imm=5),
                MInstr(MOp.LDX, rd=REG_RV, rs1=1, sym="a"),
                MInstr(MOp.RET),
            ],
            global_vars=[var],
        )
        with pytest.raises(MachineError, match="out of range"):
            run_image(image)

    def test_frame_slots(self):
        image = simple_main(
            [
                MInstr(MOp.LDI, rd=1, imm=11),
                MInstr(MOp.STS, rs1=1, imm=0),
                MInstr(MOp.LDS, rd=REG_RV, imm=0),
                MInstr(MOp.RET),
            ],
        )
        image.routine_meta["main"].frame_size = 1
        # Rebuild frame size through a fresh image instead:
        image = build_image(
            [routine("main", [
                MInstr(MOp.LDI, rd=1, imm=11),
                MInstr(MOp.STS, rs1=1, imm=0),
                MInstr(MOp.LDS, rd=REG_RV, imm=0),
                MInstr(MOp.RET),
            ], frame_size=1)],
            [],
        )
        assert run_image(image).value == 11

    def test_inputs_poked(self):
        var = GlobalVar("input_data", size=3, defining_module="test")
        image = simple_main(
            [
                MInstr(MOp.LDI, rd=1, imm=1),
                MInstr(MOp.LDX, rd=REG_RV, rs1=1, sym="input_data"),
                MInstr(MOp.RET),
            ],
            global_vars=[var],
        )
        assert run_image(image, inputs={"input_data": [4, 5, 6]}).value == 5


class TestCalls:
    def double_routine(self):
        return routine(
            "double",
            [
                MInstr(MOp.LDS, rd=1, imm=0),
                MInstr(MOp.ALU3, subop=Opcode.ADD, rd=REG_RV, rs1=1, rs2=1),
                MInstr(MOp.RET),
            ],
            n_params=1,
            frame_size=1,
        )

    def test_call_and_return(self):
        image = simple_main(
            [
                MInstr(MOp.LDI, rd=1, imm=21),
                MInstr(MOp.ARG, rs1=1, imm=0),
                MInstr(MOp.CALL, sym="double"),
                MInstr(MOp.RET),
            ],
            extra=[self.double_routine()],
        )
        result = run_image(image)
        assert result.value == 42
        assert result.calls == 2  # startup stub + explicit call

    def test_registers_preserved_across_calls(self):
        image = simple_main(
            [
                MInstr(MOp.LDI, rd=5, imm=100),
                MInstr(MOp.LDI, rd=1, imm=1),
                MInstr(MOp.ARG, rs1=1, imm=0),
                MInstr(MOp.CALL, sym="double"),
                MInstr(MOp.ALU3, subop=Opcode.ADD, rd=REG_RV, rs1=0, rs2=5),
                MInstr(MOp.RET),
            ],
            extra=[self.double_routine()],
        )
        assert run_image(image).value == 102

    def test_interface_mismatch_traps(self):
        image = simple_main(
            [MInstr(MOp.CALL, sym="double"), MInstr(MOp.RET)],
            extra=[self.double_routine()],
        )
        with pytest.raises(MachineError, match="interface mismatch"):
            run_image(image)

    def test_arguments_staged_before_a_trap_do_not_reach_the_next_run(self):
        # ``f`` stages three outgoing arguments, then traps before its
        # call; a second run must start from an empty staging area.
        var = GlobalVar("a", size=2, defining_module="test")
        staging = routine(
            "f",
            [
                MInstr(MOp.LDI, rd=1, imm=9),
                MInstr(MOp.ARG, rs1=1, imm=0),
                MInstr(MOp.ARG, rs1=1, imm=1),
                MInstr(MOp.ARG, rs1=1, imm=2),
                MInstr(MOp.LDX, rd=REG_RV, rs1=1, sym="a"),
                MInstr(MOp.RET),
            ],
            n_params=1,
        )
        image = simple_main(
            [
                MInstr(MOp.LDI, rd=1, imm=1),
                MInstr(MOp.ARG, rs1=1, imm=0),
                MInstr(MOp.CALL, sym="f"),
                MInstr(MOp.RET),
            ],
            global_vars=[var],
            extra=[staging],
        )
        machine = Machine(image)
        for _ in range(2):
            with pytest.raises(MachineError, match="array load out of range"):
                machine.run()

    def test_stack_overflow(self):
        loop = routine(
            "spin",
            [MInstr(MOp.CALL, sym="spin"), MInstr(MOp.RET)],
        )
        image = simple_main(
            [MInstr(MOp.CALL, sym="spin"), MInstr(MOp.RET)],
            extra=[loop],
        )
        with pytest.raises(MachineError, match="stack overflow"):
            run_image(image)

    def test_instruction_budget(self):
        image = simple_main(
            [
                MInstr(MOp.LDI, rd=1, imm=0),
                MInstr(MOp.BF, rs1=1, imm=0),  # spin on self... BF taken to 0
                MInstr(MOp.RET),
            ]
        )
        # Patch the branch to loop on itself (absolute address of itself).
        addr = image.routine_meta["main"].addr
        image.code[addr + 1].imm = addr + 1
        with pytest.raises(MachineError, match="budget"):
            run_image(image, max_instructions=5000)


class TestCycleModel:
    def test_taken_branch_penalty_counted(self):
        # Loop 10 times: J + BT taken per iteration.
        image = simple_main(
            [
                MInstr(MOp.LDI, rd=1, imm=0),
                MInstr(MOp.LDI, rd=2, imm=10),
                MInstr(MOp.LDI, rd=3, imm=1),
                MInstr(MOp.ALU3, subop=Opcode.ADD, rd=1, rs1=1, rs2=3),
                MInstr(MOp.ALU3, subop=Opcode.LT, rd=4, rs1=1, rs2=2),
                MInstr(MOp.BT, rs1=4, imm=3),
                MInstr(MOp.RET),
            ]
        )
        # Fix BT target to absolute address.
        addr = image.routine_meta["main"].addr
        image.code[addr + 5].imm = addr + 3
        result = run_image(image)
        assert result.taken_branches == 9  # nine loop back edges
        assert result.cycles > result.instructions

    def test_load_use_stall(self):
        var = GlobalVar("g", init=[1], defining_module="test")
        stall = simple_main(
            [
                MInstr(MOp.LDG, rd=1, sym="g"),
                MInstr(MOp.ALU3, subop=Opcode.ADD, rd=REG_RV, rs1=1, rs2=1),
                MInstr(MOp.RET),
            ],
            global_vars=[var],
        )
        result = run_image(stall)
        assert result.load_use_stalls == 1

    def test_no_stall_with_gap(self):
        var = GlobalVar("g", init=[1], defining_module="test")
        spaced = simple_main(
            [
                MInstr(MOp.LDG, rd=1, sym="g"),
                MInstr(MOp.LDI, rd=2, imm=0),
                MInstr(MOp.ALU3, subop=Opcode.ADD, rd=REG_RV, rs1=1, rs2=1),
                MInstr(MOp.RET),
            ],
            global_vars=[var],
        )
        assert run_image(spaced).load_use_stalls == 0

    def test_icache_misses_bounded_by_lines(self):
        image = simple_main(
            [MInstr(MOp.LDI, rd=REG_RV, imm=1), MInstr(MOp.RET)]
        )
        result = run_image(image)
        assert result.icache_misses >= 1

    def test_icache_disabled(self):
        image = simple_main(
            [MInstr(MOp.LDI, rd=REG_RV, imm=1), MInstr(MOp.RET)]
        )
        model = CostModel(icache_enabled=False)
        assert run_image(image, cost_model=model).icache_misses == 0

    def test_mul_costs_more_than_add(self):
        def build(subop):
            return simple_main(
                [
                    MInstr(MOp.LDI, rd=1, imm=3),
                    MInstr(MOp.ALU3, subop=subop, rd=REG_RV, rs1=1, rs2=1),
                    MInstr(MOp.RET),
                ]
            )

        model = CostModel(icache_enabled=False)
        add_cycles = run_image(build(Opcode.ADD), cost_model=model).cycles
        mul_cycles = run_image(build(Opcode.MUL), cost_model=model).cycles
        div_cycles = run_image(build(Opcode.DIV), cost_model=model).cycles
        assert add_cycles < mul_cycles < div_cycles
