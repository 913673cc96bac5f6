"""The simulator loop as first written, kept as the execution spec.

``src/repro/vm/machine.py`` runs an image with its per-run state in
locals, opcodes tested most frequent first, the I-cache consulted only
when the fetch leaves the current line, and the load-use stall charged
by the load.  This module is the loop that replaced: state on the frame
and the machine, cycles read from the cost model per instruction, and
the stall found by walking ``MInstr.reads()`` of every instruction after
a load.  ``test_machine_differential.py`` asserts both return equal
``MachineResult``s and raise equal traps; nothing under ``src/``
imports this.

One behaviour differs on purpose: here the argument staging area lives
on the machine, so a machine reused after a trap inherits the arguments
staged before it (the fast loop stages per run).  Every comparison
builds a fresh machine.
"""

from typing import Dict, List, Optional, Sequence

from repro.ir.instructions import fold_binary, fold_unary, wrap64
from repro.vm.cost import DEFAULT_COST_MODEL, CostModel
from repro.vm.image import Executable
from repro.vm.isa import REG_RV, MOp
from repro.vm.machine import MachineError, MachineResult


class _Frame:
    __slots__ = ("regs", "slots", "return_addr")

    def __init__(self, frame_size: int, return_addr: int) -> None:
        self.regs = [0] * 16
        self.slots = [0] * frame_size
        self.return_addr = return_addr


class ReferenceMachine:
    """Executes a linked image, one ``if`` per opcode in ISA order."""

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
        # Outgoing-argument staging area (written by ARG, consumed by CALL).
        self._arg_buffer: List[int] = [0] * 64
        self._args_written = 0

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
        cost = self.cost
        result = MachineResult()
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

        # I-cache state: tag per line, direct-mapped.
        icache_enabled = cost.icache_enabled
        lines = cost.icache_lines
        line_words = cost.icache_line_words
        tags = [-1] * lines

        code = image.code
        frames: List[_Frame] = [_Frame(0, -1)]
        frame = frames[0]
        pc = image.entry_addr
        cycles = 0
        instructions = 0
        last_load_reg = -1  # register written by the immediately preceding load

        while True:
            instr = code[pc]
            instructions += 1
            if instructions > self.max_instructions:
                raise MachineError("instruction budget exhausted at pc=%d" % pc)

            # Instruction fetch / I-cache.
            if icache_enabled:
                line_addr = pc // line_words
                index = line_addr % lines
                if tags[index] != line_addr:
                    tags[index] = line_addr
                    cycles += cost.icache_miss_penalty
                    result.icache_misses += 1

            op = instr.op
            regs = frame.regs

            # Load-use stall: consumer immediately after a load.
            if last_load_reg >= 0:
                stalled = False
                for reg in instr.reads():
                    if reg == last_load_reg:
                        stalled = True
                        break
                if stalled:
                    cycles += cost.load_use_stall
                    result.load_use_stalls += 1
                last_load_reg = -1

            if op is MOp.LDI:
                regs[instr.rd] = instr.imm
                cycles += cost.base_cycles
                pc += 1
            elif op is MOp.MOVR:
                regs[instr.rd] = regs[instr.rs1]
                cycles += cost.base_cycles
                pc += 1
            elif op is MOp.ALU3:
                regs[instr.rd] = fold_binary(instr.subop, regs[instr.rs1], regs[instr.rs2])
                cycles += cost.alu_cycles(instr.subop)
                pc += 1
            elif op is MOp.ALU2:
                regs[instr.rd] = fold_unary(instr.subop, regs[instr.rs1])
                cycles += cost.base_cycles
                pc += 1
            elif op is MOp.LDG:
                regs[instr.rd] = data[instr.imm]
                cycles += cost.load_cycles
                last_load_reg = instr.rd
                pc += 1
            elif op is MOp.STG:
                data[instr.imm] = regs[instr.rs1]
                cycles += cost.store_cycles
                pc += 1
            elif op is MOp.LDX:
                index = regs[instr.rs1]
                if not 0 <= index < instr.imm2:
                    raise MachineError(
                        "array load out of range at pc=%d (index %d, size %d)"
                        % (pc, index, instr.imm2)
                    )
                regs[instr.rd] = data[instr.imm + index]
                cycles += cost.load_cycles
                last_load_reg = instr.rd
                pc += 1
            elif op is MOp.STX:
                index = regs[instr.rs1]
                if not 0 <= index < instr.imm2:
                    raise MachineError(
                        "array store out of range at pc=%d (index %d, size %d)"
                        % (pc, index, instr.imm2)
                    )
                data[instr.imm + index] = regs[instr.rs2]
                cycles += cost.store_cycles
                pc += 1
            elif op is MOp.LDS:
                regs[instr.rd] = frame.slots[instr.imm]
                cycles += cost.load_cycles
                last_load_reg = instr.rd
                pc += 1
            elif op is MOp.STS:
                frame.slots[instr.imm] = regs[instr.rs1]
                cycles += cost.store_cycles
                pc += 1
            elif op is MOp.ARG:
                self._arg_buffer[instr.imm] = regs[instr.rs1]
                self._args_written = max(self._args_written, instr.imm + 1)
                cycles += cost.base_cycles
                pc += 1
            elif op is MOp.CALL:
                meta = self.image.meta_by_addr.get(instr.imm)
                if meta is None:
                    raise MachineError("call to non-routine address %d" % instr.imm)
                if self._args_written != meta.n_params:
                    raise MachineError(
                        "interface mismatch calling %s: %d args passed, %d expected"
                        % (meta.name, self._args_written, meta.n_params)
                    )
                if len(frames) >= self.max_depth:
                    raise MachineError("call stack overflow at %s" % meta.name)
                callee = _Frame(meta.frame_size, pc + 1)
                callee.slots[: meta.n_params] = self._arg_buffer[: meta.n_params]
                frames.append(callee)
                frame = callee
                self._args_written = 0
                cycles += cost.call_overhead
                result.calls += 1
                pc = instr.imm
            elif op is MOp.RET:
                value = regs[REG_RV]
                frames.pop()
                if not frames:
                    raise MachineError("RET with empty call stack")
                return_addr = frame.return_addr
                frame = frames[-1]
                frame.regs[REG_RV] = value
                self._args_written = 0
                cycles += cost.ret_overhead
                pc = return_addr
            elif op is MOp.BT:
                if regs[instr.rs1]:
                    pc = instr.imm
                    cycles += cost.base_cycles + cost.taken_branch_penalty
                    result.taken_branches += 1
                else:
                    cycles += cost.base_cycles
                    pc += 1
            elif op is MOp.BF:
                if not regs[instr.rs1]:
                    pc = instr.imm
                    cycles += cost.base_cycles + cost.taken_branch_penalty
                    result.taken_branches += 1
                else:
                    cycles += cost.base_cycles
                    pc += 1
            elif op is MOp.J:
                pc = instr.imm
                cycles += cost.base_cycles + cost.taken_branch_penalty
                result.taken_branches += 1
            elif op is MOp.PROBE:
                probe_counts[instr.imm] += 1
                cycles += cost.base_cycles
                pc += 1
            elif op is MOp.HALT:
                result.value = frame.regs[REG_RV]
                result.cycles = cycles
                result.instructions = instructions
                result.probe_counts = probe_counts
                result.data = data
                return result
            else:  # pragma: no cover
                raise MachineError("unhandled machine op %s" % op)
