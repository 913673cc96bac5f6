"""The functional machine simulator with cycle accounting.

Runs linked :class:`Executable` images.  The simulator is *functional*
-- it computes real values, so end-to-end correctness of LLO and the
linker is testable against the IL interpreter -- and simultaneously
charges cycles from a :class:`CostModel`, including a direct-mapped
I-cache driven by the image's actual code addresses.  That makes block
layout and procedure clustering measurable, which is what Figures 1 and
6 of the paper need.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.instructions import BINARY_FOLDS, fold_unary, wrap64
from .cost import DEFAULT_COST_MODEL, CostModel
from .image import Executable
from .isa import NUM_REGS, REG_RV, MOp


class MachineError(Exception):
    """Raised on machine traps (bad address, arity mismatch...)."""


class MachineResult:
    """Outcome of one simulated execution."""

    __slots__ = (
        "value",
        "cycles",
        "instructions",
        "calls",
        "icache_misses",
        "taken_branches",
        "load_use_stalls",
        "probe_counts",
        "data",
    )

    def __init__(self) -> None:
        self.value = 0
        self.cycles = 0
        self.instructions = 0
        self.calls = 0
        self.icache_misses = 0
        self.taken_branches = 0
        self.load_use_stalls = 0
        #: probe index -> count (instrumented runs).
        self.probe_counts: List[int] = []
        #: Final data segment (for output checking).
        self.data: List[int] = []

    def __repr__(self) -> str:
        return (
            "<MachineResult value=%d cycles=%d instrs=%d calls=%d "
            "icache_misses=%d>"
            % (
                self.value,
                self.cycles,
                self.instructions,
                self.calls,
                self.icache_misses,
            )
        )


class Machine:
    """Executes a linked image.

    A machine keeps only its image and limits: everything one run
    changes (registers, frames, the argument staging area, the counters)
    lives in :meth:`run`'s locals, so a machine that trapped runs again
    from a clean state.
    """

    def __init__(
        self,
        image: Executable,
        cost_model: Optional[CostModel] = None,
        max_instructions: int = 200_000_000,
        max_depth: int = 4000,
    ) -> None:
        self.image = image
        self.cost = cost_model or DEFAULT_COST_MODEL
        self.max_instructions = max_instructions
        self.max_depth = max_depth

    def run(
        self,
        inputs: Optional[Dict[str, Sequence[int]]] = None,
    ) -> MachineResult:
        """Run from the image entry point until HALT.

        ``inputs`` maps global array names to initial contents, poked
        into the data segment before execution (the stand-in for input
        files).
        """
        image = self.image
        data = list(image.data_init)
        if inputs:
            for name, values in inputs.items():
                base = image.data_addr[name]
                size = image.data_size[name]
                if len(values) > size:
                    raise MachineError(
                        "input for %s has %d values, array holds %d"
                        % (name, len(values), size)
                    )
                for offset, value in enumerate(values):
                    data[base + offset] = wrap64(value)
        probe_counts = [0] * len(image.probes)

        # The loop reads MInstr slots in place: an image shares them with
        # the resident routines, while a decoded copy of the code would be
        # new memory for the whole run (docs/vm_cost_model.md).
        code = image.code
        meta_by_addr = image.meta_by_addr
        max_instructions = self.max_instructions
        max_callers = self.max_depth - 1
        cost = self.cost
        base_cycles = cost.base_cycles
        load_cycles = cost.load_cycles
        store_cycles = cost.store_cycles
        load_use_stall = cost.load_use_stall
        taken_cycles = base_cycles + cost.taken_branch_penalty
        call_overhead = cost.call_overhead
        ret_overhead = cost.ret_overhead
        folds = BINARY_FOLDS
        alu_cycles = {subop: cost.alu_cycles(subop) for subop in folds}

        # I-cache: one tag per line, direct-mapped.  Fetches inside the
        # line the last check admitted cannot miss, so the tags are only
        # consulted when ``pc`` leaves [line_lo, line_hi).  Without an
        # I-cache the window is every address ``code`` can be indexed by.
        icache_enabled = cost.icache_enabled
        lines = cost.icache_lines
        line_words = cost.icache_line_words
        miss_penalty = cost.icache_miss_penalty
        tags = [-1] * lines
        line_lo, line_hi = (0, 0) if icache_enabled else (-len(code), len(code))

        ALU3, LDI, MOVR, PROBE, BF, J = (
            MOp.ALU3, MOp.LDI, MOp.MOVR, MOp.PROBE, MOp.BF, MOp.J)
        LDX, ARG, LDS, CALL, RET, STG = (
            MOp.LDX, MOp.ARG, MOp.LDS, MOp.CALL, MOp.RET, MOp.STG)
        LDG, STX, BT, STS, ALU2, HALT = (
            MOp.LDG, MOp.STX, MOp.BT, MOp.STS, MOp.ALU2, MOp.HALT)

        # The running frame is (regs, slots, return_addr); ``callers``
        # holds the suspended ones.  The bottom frame belongs to no call.
        callers: List[Tuple[List[int], List[int], int]] = []
        regs = [0] * NUM_REGS
        slots: List[int] = []
        return_addr = -1
        # Outgoing-argument staging area (written by ARG, consumed by CALL).
        args = [0] * 64
        n_args = 0

        pc = image.entry_addr
        cycles = 0
        instructions = 0
        calls = 0
        icache_misses = 0
        taken_branches = 0
        load_use_stalls = 0

        while True:
            instr = code[pc]
            instructions += 1
            if instructions > max_instructions:
                raise MachineError("instruction budget exhausted at pc=%d" % pc)
            if not line_lo <= pc < line_hi:
                line_addr = pc // line_words
                index = line_addr % lines
                if tags[index] != line_addr:
                    tags[index] = line_addr
                    cycles += miss_penalty
                    icache_misses += 1
                line_lo = line_addr * line_words
                line_hi = line_lo + line_words

            # Opcodes by how often they execute, most frequent first.  A
            # load checks its successor (always ``code[pc + 1]``) for the
            # load-use stall that instruction would pay.
            op = instr.op
            if op is ALU3:
                subop = instr.subop
                regs[instr.rd] = folds[subop](regs[instr.rs1], regs[instr.rs2])
                cycles += alu_cycles[subop]
                pc += 1
            elif op is LDI:
                regs[instr.rd] = instr.imm
                cycles += base_cycles
                pc += 1
            elif op is MOVR:
                regs[instr.rd] = regs[instr.rs1]
                cycles += base_cycles
                pc += 1
            elif op is PROBE:
                probe_counts[instr.imm] += 1
                cycles += base_cycles
                pc += 1
            elif op is BF:
                if regs[instr.rs1]:
                    cycles += base_cycles
                    pc += 1
                else:
                    pc = instr.imm
                    cycles += taken_cycles
                    taken_branches += 1
            elif op is J:
                pc = instr.imm
                cycles += taken_cycles
                taken_branches += 1
            elif op is LDX:
                index = regs[instr.rs1]
                if not 0 <= index < instr.imm2:
                    raise MachineError(
                        "array load out of range at pc=%d (index %d, size %d)"
                        % (pc, index, instr.imm2)
                    )
                rd = instr.rd
                regs[rd] = data[instr.imm + index]
                cycles += load_cycles
                pc += 1
                after = code[pc]
                if after.rs1 == rd or after.rs2 == rd:
                    cycles += load_use_stall
                    load_use_stalls += 1
            elif op is ARG:
                slot = instr.imm
                args[slot] = regs[instr.rs1]
                if slot >= n_args:
                    n_args = slot + 1
                cycles += base_cycles
                pc += 1
            elif op is LDS:
                rd = instr.rd
                regs[rd] = slots[instr.imm]
                cycles += load_cycles
                pc += 1
                after = code[pc]
                if after.rs1 == rd or after.rs2 == rd:
                    cycles += load_use_stall
                    load_use_stalls += 1
            elif op is CALL:
                target = instr.imm
                meta = meta_by_addr.get(target)
                if meta is None:
                    raise MachineError("call to non-routine address %d" % target)
                n_params = meta.n_params
                if n_args != n_params:
                    raise MachineError(
                        "interface mismatch calling %s: %d args passed, %d expected"
                        % (meta.name, n_args, n_params)
                    )
                if len(callers) >= max_callers:
                    raise MachineError("call stack overflow at %s" % meta.name)
                callers.append((regs, slots, return_addr))
                regs = [0] * NUM_REGS
                slots = args[:n_params] + [0] * (meta.frame_size - n_params)
                return_addr = pc + 1
                n_args = 0
                cycles += call_overhead
                calls += 1
                pc = target
            elif op is RET:
                if not callers:
                    raise MachineError("RET with empty call stack")
                value = regs[REG_RV]
                pc = return_addr
                regs, slots, return_addr = callers.pop()
                regs[REG_RV] = value
                n_args = 0
                cycles += ret_overhead
            elif op is STG:
                data[instr.imm] = regs[instr.rs1]
                cycles += store_cycles
                pc += 1
            elif op is LDG:
                rd = instr.rd
                regs[rd] = data[instr.imm]
                cycles += load_cycles
                pc += 1
                after = code[pc]
                if after.rs1 == rd or after.rs2 == rd:
                    cycles += load_use_stall
                    load_use_stalls += 1
            elif op is STX:
                index = regs[instr.rs1]
                if not 0 <= index < instr.imm2:
                    raise MachineError(
                        "array store out of range at pc=%d (index %d, size %d)"
                        % (pc, index, instr.imm2)
                    )
                data[instr.imm + index] = regs[instr.rs2]
                cycles += store_cycles
                pc += 1
            elif op is BT:
                if regs[instr.rs1]:
                    pc = instr.imm
                    cycles += taken_cycles
                    taken_branches += 1
                else:
                    cycles += base_cycles
                    pc += 1
            elif op is STS:
                slots[instr.imm] = regs[instr.rs1]
                cycles += store_cycles
                pc += 1
            elif op is ALU2:
                regs[instr.rd] = fold_unary(instr.subop, regs[instr.rs1])
                cycles += base_cycles
                pc += 1
            elif op is HALT:
                result = MachineResult()
                result.value = regs[REG_RV]
                result.cycles = cycles
                result.instructions = instructions
                result.calls = calls
                result.icache_misses = icache_misses
                result.taken_branches = taken_branches
                result.load_use_stalls = load_use_stalls
                result.probe_counts = probe_counts
                result.data = data
                return result
            else:  # pragma: no cover
                raise MachineError("unhandled machine op %s" % op)


def run_image(
    image: Executable,
    inputs: Optional[Dict[str, Sequence[int]]] = None,
    cost_model: Optional[CostModel] = None,
    max_instructions: int = 200_000_000,
) -> MachineResult:
    """One-shot convenience wrapper around :class:`Machine`."""
    return Machine(image, cost_model, max_instructions=max_instructions).run(inputs)
