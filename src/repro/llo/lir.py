"""LIR: the low-level IR between IL and final machine code.

LIR blocks hold machine instructions over *virtual* registers plus an
abstract terminator; the register allocator rewrites virtual registers
to physical ones, and block layout materializes terminators into
BT/BF/J instructions based on the final block order (fall-through edges
cost nothing -- that is what profile-guided layout optimizes).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..vm.isa import MInstr, MOp

#: Opcodes whose ``rd`` is written.  For ``CALL`` it is the virtual
#: destination of the return value (the machine leaves it in R0).
DEFINING_OPS = (MOp.LDI, MOp.MOVR, MOp.ALU3, MOp.ALU2, MOp.LDG, MOp.LDX,
                MOp.LDS, MOp.CALL)


def defined_reg(instr: MInstr) -> Optional[int]:
    """The register ``instr`` writes, if any."""
    return instr.rd if instr.op in DEFINING_OPS else None


class Terminator:
    """Abstract block terminator.

    kind: "br" (cond virtual reg, true label, false label),
    "jmp" (label), or "ret" (value virtual reg or None).
    """

    __slots__ = ("kind", "reg", "true_label", "false_label")

    def __init__(
        self,
        kind: str,
        reg: Optional[int] = None,
        true_label: Optional[str] = None,
        false_label: Optional[str] = None,
    ) -> None:
        self.kind = kind
        self.reg = reg
        self.true_label = true_label
        self.false_label = false_label

    def successors(self) -> Tuple[str, ...]:
        if self.kind == "br":
            return (self.true_label, self.false_label)
        if self.kind == "jmp":
            return (self.true_label,)
        return ()

    def __repr__(self) -> str:
        if self.kind == "br":
            return "<br v%d ? %s : %s>" % (self.reg, self.true_label,
                                           self.false_label)
        if self.kind == "jmp":
            return "<jmp %s>" % self.true_label
        return "<ret%s>" % ("" if self.reg is None else " v%d" % self.reg)


class LirBlock:
    """A basic block of machine instructions + abstract terminator."""

    __slots__ = ("label", "instrs", "terminator")

    def __init__(self, label: str) -> None:
        self.label = label
        self.instrs: List[MInstr] = []
        self.terminator: Optional[Terminator] = None

    def __repr__(self) -> str:
        return "<LirBlock %s (%d instrs) %r>" % (
            self.label,
            len(self.instrs),
            self.terminator,
        )


class LirRoutine:
    """One routine in LIR form."""

    __slots__ = ("name", "module_name", "n_params", "blocks", "next_vreg")

    def __init__(
        self, name: str, module_name: str, n_params: int, next_vreg: int
    ) -> None:
        self.name = name
        self.module_name = module_name
        self.n_params = n_params
        self.blocks: List[LirBlock] = []
        self.next_vreg = next_vreg

    def block_map(self) -> Dict[str, LirBlock]:
        return {block.label: block for block in self.blocks}

    def new_vreg(self) -> int:
        vreg = self.next_vreg
        self.next_vreg += 1
        return vreg

    def instr_count(self) -> int:
        return sum(len(block.instrs) for block in self.blocks) + len(self.blocks)

    def predecessors(self) -> Dict[str, List[str]]:
        preds: Dict[str, List[str]] = {block.label: [] for block in self.blocks}
        for block in self.blocks:
            if block.terminator is None:
                continue
            for succ in block.terminator.successors():
                if succ in preds:
                    preds[succ].append(block.label)
        return preds

    def __repr__(self) -> str:
        return "<LirRoutine %s (%d blocks)>" % (self.name, len(self.blocks))
