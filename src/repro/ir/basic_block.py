"""Basic blocks of the IL control-flow graph."""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from .errors import VerifierError
from .instructions import TERMINATORS, Instr, Opcode


class BasicBlock:
    """A labelled, single-entry straight-line sequence of instructions.

    The last instruction must be a terminator (``RET``, ``BR`` or
    ``JMP``) once the containing routine is finalized; during
    construction a block may temporarily lack one.
    """

    __slots__ = ("label", "instrs")

    def __init__(self, label: str, instrs: Optional[List[Instr]] = None) -> None:
        self.label = label
        self.instrs: List[Instr] = list(instrs) if instrs else []

    # -- Terminator handling ------------------------------------------------

    @property
    def terminator(self) -> Optional[Instr]:
        """The block's terminator instruction, or None if unterminated."""
        instrs = self.instrs
        if instrs and instrs[-1].op in TERMINATORS:
            return instrs[-1]
        return None

    def is_terminated(self) -> bool:
        return self.terminator is not None

    def successors(self) -> Tuple[str, ...]:
        """Labels of successor blocks (empty for RET / unterminated)."""
        instrs = self.instrs
        if instrs:
            last = instrs[-1]
            if last.op is Opcode.BR or last.op is Opcode.JMP:
                return last.targets
        return ()

    def body(self) -> List[Instr]:
        """Instructions excluding the terminator."""
        if self.is_terminated():
            return self.instrs[:-1]
        return list(self.instrs)

    # -- Mutation helpers ---------------------------------------------------

    def append(self, instr: Instr) -> None:
        if self.is_terminated():
            raise VerifierError(
                "appending %r after terminator in block %s" % (instr.op, self.label)
            )
        self.instrs.append(instr)

    def set_terminator(self, instr: Instr) -> None:
        if not instr.is_terminator():
            raise VerifierError("%r is not a terminator" % (instr.op,))
        if self.is_terminated():
            self.instrs[-1] = instr
        else:
            self.instrs.append(instr)

    def retarget(self, old_label: str, new_label: str) -> None:
        """Replace successor label ``old_label`` with ``new_label``."""
        term = self.terminator
        if term is None:
            return
        term.targets = tuple(
            new_label if t == old_label else t for t in term.targets
        )

    # -- Queries ------------------------------------------------------------

    def calls(self) -> Iterator[Tuple[int, Instr]]:
        """Yield (index, instr) for every CALL in the block."""
        for index, instr in enumerate(self.instrs):
            if instr.op is Opcode.CALL:
                yield index, instr

    def copy(self) -> "BasicBlock":
        return BasicBlock(self.label, [instr.copy() for instr in self.instrs])

    def __len__(self) -> int:
        return len(self.instrs)

    def __repr__(self) -> str:
        return "<BasicBlock %s (%d instrs)>" % (self.label, len(self.instrs))
