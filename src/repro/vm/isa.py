"""The virtual target machine ISA.

A small register machine standing in for the paper's PA-8000 target.
LLO lowers IL into this ISA; the linker resolves symbolic operands to
absolute code/data addresses; :mod:`repro.vm.machine` executes the
result functionally while charging cycles from the cost model.

Register convention:

* 16 general-purpose registers ``R0..R15``;
* ``R0`` is the call return-value register (clobbered by every call);
* ``R14``/``R15`` are reserved spill-reload scratch registers;
* ``R1..R13`` are allocatable.

Calling convention: the caller writes outgoing arguments with ``ARG k``,
then ``CALL``.  The machine materializes a fresh frame whose slots
``0..n-1`` hold the arguments; the callee addresses its frame through
``LDS``/``STS`` slot instructions.  Return values travel through ``R0``.
Each frame gets a fresh register file, so the fixed call/return cycle
overhead in the cost model stands in for caller/callee save-restore
traffic (documented substitution, DESIGN.md §2).
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

from ..ir.instructions import Opcode

#: Total general-purpose registers.
NUM_REGS = 16
#: Return-value register.
REG_RV = 0
#: Scratch registers reserved for spill reloads.
REG_SCRATCH_A = 14
REG_SCRATCH_B = 15
#: Registers the allocator may hand out.
ALLOCATABLE_REGS = tuple(range(1, 14))


class MOp(enum.Enum):
    """Machine opcodes."""

    LDI = "ldi"  # rd <- imm
    MOVR = "movr"  # rd <- rs1
    ALU3 = "alu3"  # rd <- rs1 (subop) rs2
    ALU2 = "alu2"  # rd <- (subop) rs1
    LDG = "ldg"  # rd <- data[imm]
    STG = "stg"  # data[imm] <- rs1
    LDX = "ldx"  # rd <- data[imm + rs1]  (bounds-checked vs imm2=size)
    STX = "stx"  # data[imm + rs1] <- rs2
    LDS = "lds"  # rd <- frame[imm]
    STS = "sts"  # frame[imm] <- rs1
    ARG = "arg"  # outgoing_arg[imm] <- rs1
    CALL = "call"  # call routine (sym until link, imm = code addr after)
    RET = "ret"  # return; value already in R0
    BT = "bt"  # if rs1 != 0 jump to target
    BF = "bf"  # if rs1 == 0 jump to target
    J = "j"  # unconditional jump
    PROBE = "probe"  # profile counter +1 (imm = probe index after link)
    HALT = "halt"  # stop the machine (image epilogue)


#: Opcodes whose operands the linker resolves (branch offsets become
#: absolute, ``sym`` becomes a code or data address); every other
#: instruction enters an image exactly as LLO emitted it.
RELOCATED_OPS = (MOp.BT, MOp.BF, MOp.J, MOp.CALL,
                 MOp.LDG, MOp.STG, MOp.LDX, MOp.STX)


class MInstr:
    """One machine instruction.

    ``sym``/``target`` are symbolic (routine name / block label) before
    linking; the linker rewrites them into absolute values in ``imm``
    and clears the symbolic field.  ``imm2`` carries the array size for
    bounds checking of LDX/STX.
    """

    __slots__ = ("op", "subop", "rd", "rs1", "rs2", "imm", "imm2", "sym", "target")

    def __init__(
        self,
        op: MOp,
        subop: Optional[Opcode] = None,
        rd: Optional[int] = None,
        rs1: Optional[int] = None,
        rs2: Optional[int] = None,
        imm: Optional[int] = None,
        imm2: Optional[int] = None,
        sym: Optional[str] = None,
        target: Optional[str] = None,
    ) -> None:
        self.op = op
        self.subop = subop
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        self.imm2 = imm2
        self.sym = sym
        self.target = target

    def copy(self) -> "MInstr":
        clone = object.__new__(MInstr)
        clone.op = self.op
        clone.subop = self.subop
        clone.rd = self.rd
        clone.rs1 = self.rs1
        clone.rs2 = self.rs2
        clone.imm = self.imm
        clone.imm2 = self.imm2
        clone.sym = self.sym
        clone.target = self.target
        return clone

    def reads(self) -> Tuple[int, ...]:
        """Registers read by this instruction, ``rs1`` before ``rs2``."""
        rs1 = self.rs1
        rs2 = self.rs2
        if rs2 is None:
            return () if rs1 is None else (rs1,)
        return (rs2,) if rs1 is None else (rs1, rs2)

    def __repr__(self) -> str:
        fields = []
        if self.subop is not None:
            fields.append(self.subop.value)
        for name in ("rd", "rs1", "rs2"):
            value = getattr(self, name)
            if value is not None:
                fields.append("%s=r%d" % (name, value))
        for name in ("imm", "imm2"):
            value = getattr(self, name)
            if value is not None:
                fields.append("%s=%d" % (name, value))
        for name in ("sym", "target"):
            value = getattr(self, name)
            if value is not None:
                fields.append("%s=%s" % (name, value))
        return "<%s %s>" % (self.op.value, " ".join(fields))
