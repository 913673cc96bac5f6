"""Lowering: IL routines to LIR.

Conventions established here (consumed by the allocator and emitter):

* IL virtual registers map 1:1 to LIR virtual registers;
* parameters arrive in frame slots ``0..n-1``; lowering loads each
  *used* parameter into its virtual register at entry;
* ``CALL`` instructions carry ``rd`` = the virtual register that wants
  the return value; the allocator inserts the ``R0`` plumbing;
* global symbols stay symbolic (``sym``) until link time.
"""

from __future__ import annotations

from typing import Set

from ..ir.instructions import BINARY_OPS, Opcode
from ..ir.routine import Routine
from ..vm.isa import MInstr, MOp
from .lir import LirBlock, LirRoutine, Terminator


_CONST, _MOV, _LOADG, _LOADE = Opcode.CONST, Opcode.MOV, Opcode.LOADG, Opcode.LOADE
_STOREG, _STOREE, _CALL, _PROBE = (Opcode.STOREG, Opcode.STOREE, Opcode.CALL,
                                   Opcode.PROBE)
_RET, _BR, _JMP, _NEG, _NOT = (Opcode.RET, Opcode.BR, Opcode.JMP, Opcode.NEG,
                               Opcode.NOT)
_LDI, _MOVR, _ALU3, _ALU2 = MOp.LDI, MOp.MOVR, MOp.ALU3, MOp.ALU2
_LDG, _STG, _LDX, _STX = MOp.LDG, MOp.STG, MOp.LDX, MOp.STX
_LDS, _ARG, _MCALL, _MPROBE = MOp.LDS, MOp.ARG, MOp.CALL, MOp.PROBE


class LoweringError(Exception):
    """Raised on IL constructs the code generator cannot lower."""


def lower_routine(routine: Routine) -> LirRoutine:
    """Translate one IL routine into LIR.

    One walk over the instructions, dispatching on the opcode, lowers
    every block and notes which parameters are read; the entry block
    then starts by loading those from their frame slots.
    """
    lir = LirRoutine(
        routine.name,
        routine.module_name,
        routine.n_params,
        routine.next_reg,
    )
    n_params = routine.n_params
    used_params: Set[int] = set()
    binary_ops = BINARY_OPS
    for il_block in routine.blocks:
        block = LirBlock(il_block.label)
        lir.blocks.append(block)
        append = block.instrs.append
        for instr in il_block.instrs:
            op = instr.op
            a = instr.a
            if a is not None and a < n_params:
                used_params.add(a)
            if op in binary_ops:
                b = instr.b
                if b < n_params:
                    used_params.add(b)
                append(MInstr(_ALU3, op, instr.dst, a, b))
            elif op is _CONST:
                append(MInstr(_LDI, None, instr.dst, None, None, instr.imm))
            elif op is _MOV:
                append(MInstr(_MOVR, None, instr.dst, a))
            elif op is _LOADG:
                append(MInstr(_LDG, None, instr.dst, None, None, None, None,
                              instr.sym))
            elif op is _CALL:
                for arg_index, arg_reg in enumerate(instr.args):
                    if arg_reg < n_params:
                        used_params.add(arg_reg)
                    append(MInstr(_ARG, None, None, arg_reg, None, arg_index))
                append(MInstr(_MCALL, None, instr.dst, None, None, None, None,
                              instr.sym))
            elif op is _BR:
                targets = instr.targets
                block.terminator = Terminator("br", a, targets[0], targets[1])
            elif op is _JMP:
                block.terminator = Terminator("jmp", None, instr.targets[0])
            elif op is _RET:
                block.terminator = Terminator("ret", a)
            elif op is _LOADE:
                append(MInstr(_LDX, None, instr.dst, a, None, None, None,
                              instr.sym))
            elif op is _STOREG:
                append(MInstr(_STG, None, None, a, None, None, None, instr.sym))
            elif op is _STOREE:
                b = instr.b
                if b < n_params:
                    used_params.add(b)
                append(MInstr(_STX, None, None, a, b, None, None, instr.sym))
            elif op is _NEG or op is _NOT:
                append(MInstr(_ALU2, op, instr.dst, a))
            elif op is _PROBE:
                append(MInstr(_MPROBE, None, None, None, None, instr.imm))
            else:  # pragma: no cover
                raise LoweringError("unlowerable opcode %s" % op)
        if block.terminator is None:
            raise LoweringError(
                "block %s of %s has no terminator" % (il_block.label,
                                                      routine.name)
            )
    if used_params:
        # Materialize incoming parameters from their frame slots.
        lir.blocks[0].instrs[:0] = [
            MInstr(_LDS, None, param, None, None, param)
            for param in sorted(used_params)
        ]
    return lir

