"""A convenience builder for constructing IL routines programmatically.

Used by the frontend lowering, the synthetic-application generator and
by tests.  The builder maintains a current insertion block and hands out
fresh virtual registers.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .basic_block import BasicBlock
from .errors import IRError
from .instructions import BINARY_OPS, TERMINATORS, UNARY_OPS, Instr, Opcode
from .routine import Routine


class IRBuilder:
    """Builds one routine, block by block.

    Instructions go straight onto the open block's list; the one check
    per instruction is that the list does not already end in a
    terminator (what :meth:`BasicBlock.append` checks).
    """

    def __init__(self, routine: Routine) -> None:
        self.routine = routine
        if not routine.blocks:
            routine.new_block("entry")
        self._block: BasicBlock = routine.blocks[0]

    # -- Block control --------------------------------------------------------

    @property
    def block(self) -> BasicBlock:
        return self._block

    def new_block(self, hint: str = "bb") -> BasicBlock:
        return self.routine.new_block(hint)

    def position_at(self, block: BasicBlock) -> None:
        self._block = block

    def is_terminated(self) -> bool:
        return self._block.is_terminated()

    # -- Instruction emission -------------------------------------------------

    def emit(self, instr: Instr) -> Instr:
        instrs = self._block.instrs
        if instrs and instrs[-1].op in TERMINATORS:
            self._block.append(instr)  # refuses it with the block's error
        instrs.append(instr)
        return instr

    def const(self, value: int) -> int:
        dst = self.routine.new_reg()
        self.emit(Instr(Opcode.CONST, dst, None, None, int(value)))
        return dst

    def emit_const_into(self, dst: int, value: int) -> int:
        """Emit ``dst = const value`` into an existing register."""
        self.emit(Instr(Opcode.CONST, dst, None, None, int(value)))
        return dst

    def mov(self, src: int, dst: Optional[int] = None) -> int:
        if dst is None:
            dst = self.routine.new_reg()
        self.emit(Instr(Opcode.MOV, dst, src))
        return dst

    def binop(self, op: Opcode, a: int, b: int, dst: Optional[int] = None) -> int:
        if op not in BINARY_OPS:
            raise IRError("%s is not a binary opcode" % op)
        if dst is None:
            dst = self.routine.new_reg()
        self.emit(Instr(op, dst, a, b))
        return dst

    def unop(self, op: Opcode, a: int, dst: Optional[int] = None) -> int:
        if op not in UNARY_OPS:
            raise IRError("%s is not a unary opcode" % op)
        if dst is None:
            dst = self.routine.new_reg()
        self.emit(Instr(op, dst, a))
        return dst

    # Shorthand binary helpers (the most common ones).

    def add(self, a: int, b: int) -> int:
        return self.binop(Opcode.ADD, a, b)

    def sub(self, a: int, b: int) -> int:
        return self.binop(Opcode.SUB, a, b)

    def mul(self, a: int, b: int) -> int:
        return self.binop(Opcode.MUL, a, b)

    def lt(self, a: int, b: int) -> int:
        return self.binop(Opcode.LT, a, b)

    def eq(self, a: int, b: int) -> int:
        return self.binop(Opcode.EQ, a, b)

    # -- Memory -----------------------------------------------------------------

    def load_global(self, sym: str) -> int:
        dst = self.routine.new_reg()
        self.emit(Instr(Opcode.LOADG, dst, None, None, None, sym))
        return dst

    def store_global(self, sym: str, src: int) -> None:
        self.emit(Instr(Opcode.STOREG, None, src, None, None, sym))

    def load_elem(self, sym: str, index: int) -> int:
        dst = self.routine.new_reg()
        self.emit(Instr(Opcode.LOADE, dst, index, None, None, sym))
        return dst

    def store_elem(self, sym: str, index: int, value: int) -> None:
        self.emit(Instr(Opcode.STOREE, None, index, value, None, sym))

    # -- Calls --------------------------------------------------------------------

    def call(
        self, callee: str, args: Sequence[int] = (), want_result: bool = True
    ) -> Optional[int]:
        dst = self.routine.new_reg() if want_result else None
        self.emit(Instr(Opcode.CALL, dst, None, None, None, callee, args))
        return dst

    # -- Terminators ------------------------------------------------------------

    def ret(self, value: Optional[int] = None) -> None:
        self._block.set_terminator(Instr(Opcode.RET, a=value))

    def br(self, cond: int, if_true: BasicBlock, if_false: BasicBlock) -> None:
        self._block.set_terminator(
            Instr(Opcode.BR, a=cond, targets=(if_true.label, if_false.label))
        )

    def jmp(self, target: BasicBlock) -> None:
        self._block.set_terminator(Instr(Opcode.JMP, targets=(target.label,)))

    # -- Finishing ---------------------------------------------------------------

    def finish(self) -> Routine:
        """Validate terminators and return the routine."""
        for block in self.routine.blocks:
            if not block.is_terminated():
                raise IRError(
                    "block %s of %s lacks a terminator"
                    % (block.label, self.routine.name)
                )
        self.routine.invalidate()
        return self.routine
