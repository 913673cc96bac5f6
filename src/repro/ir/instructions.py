"""The common intermediate language (IL) instruction set.

The IL is a register-based three-address code over 64-bit signed
integers.  It is deliberately language-neutral: the high-level optimizer
(HLO) never needs to know which frontend produced a module, mirroring
the HP-UX compiler described in the paper (section 3).

Semantics notes (shared with the interpreter, the constant folder and
the virtual machine -- they must all agree):

* All arithmetic wraps to 64-bit two's complement.
* Division and modulo by zero yield 0 (total semantics; this keeps
  randomly generated programs well-defined for property testing).
* Division truncates toward zero, like C.
* Shift amounts are masked to the range [0, 63].
* Comparison results are 0 or 1.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Iterator, Optional, Tuple

_MASK64 = (1 << 64) - 1
_SIGN64 = 1 << 63
_MIN64 = -_SIGN64


def wrap64(value: int) -> int:
    """Wrap an arbitrary Python int to signed 64-bit two's complement."""
    value &= _MASK64
    if value & _SIGN64:
        value -= 1 << 64
    return value


def sdiv64(a: int, b: int) -> int:
    """C-style truncating division with total semantics (x / 0 == 0)."""
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return wrap64(q)


def smod64(a: int, b: int) -> int:
    """C-style remainder with total semantics (x % 0 == 0)."""
    if b == 0:
        return 0
    return wrap64(a - sdiv64(a, b) * b)


class Opcode(enum.Enum):
    """IL opcodes."""

    # Data movement.
    CONST = "const"  # dst <- imm
    MOV = "mov"  # dst <- a

    # Binary arithmetic / logic: dst <- a OP b.
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"

    # Unary: dst <- OP a.
    NEG = "neg"
    NOT = "not"

    # Comparisons: dst <- (a OP b) ? 1 : 0.
    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"

    # Global memory.
    LOADG = "loadg"  # dst <- global[sym]
    STOREG = "storeg"  # global[sym] <- a
    LOADE = "loade"  # dst <- array[sym][a]
    STOREE = "storee"  # array[sym][a] <- b

    # Calls.  CALL: dst (optional) <- sym(args...)
    CALL = "call"

    # Terminators.
    RET = "ret"  # return a (or 0 when a is None)
    BR = "br"  # if a != 0 goto targets[0] else targets[1]
    JMP = "jmp"  # goto targets[0]

    # Instrumentation probe (inserted by +I); increments counter `imm`.
    PROBE = "probe"

    # Members are singletons, so identity is a sound hash; Enum's own
    # hashes the member *name* in Python on every ``op in BINARY_OPS``
    # or ``table[op]``, the hottest query the optimizer makes.
    __hash__ = object.__hash__


#: Opcodes of the form dst <- a OP b.
BINARY_OPS = frozenset(
    {
        Opcode.ADD,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.DIV,
        Opcode.MOD,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.SHL,
        Opcode.SHR,
        Opcode.EQ,
        Opcode.NE,
        Opcode.LT,
        Opcode.LE,
        Opcode.GT,
        Opcode.GE,
    }
)

#: Opcodes of the form dst <- OP a.
UNARY_OPS = frozenset({Opcode.NEG, Opcode.NOT, Opcode.MOV})

#: Opcodes that end a basic block.
TERMINATORS = frozenset({Opcode.RET, Opcode.BR, Opcode.JMP})

#: Opcodes that cannot be removed even when their result is dead.
SIDE_EFFECT_OPS = TERMINATORS | {
    Opcode.STOREG, Opcode.STOREE, Opcode.CALL, Opcode.PROBE
}

#: Commutative binary opcodes.
COMMUTATIVE_OPS = frozenset(
    {Opcode.ADD, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.EQ, Opcode.NE}
)


def _fold_add(a: int, b: int) -> int:
    value = a + b
    return value if _MIN64 <= value < _SIGN64 else wrap64(value)


def _fold_sub(a: int, b: int) -> int:
    value = a - b
    return value if _MIN64 <= value < _SIGN64 else wrap64(value)


def _fold_mul(a: int, b: int) -> int:
    value = a * b
    return value if _MIN64 <= value < _SIGN64 else wrap64(value)


def _fold_and(a: int, b: int) -> int:
    value = a & b
    return value if _MIN64 <= value < _SIGN64 else wrap64(value)


def _fold_or(a: int, b: int) -> int:
    value = a | b
    return value if _MIN64 <= value < _SIGN64 else wrap64(value)


def _fold_xor(a: int, b: int) -> int:
    value = a ^ b
    return value if _MIN64 <= value < _SIGN64 else wrap64(value)


def _fold_shl(a: int, b: int) -> int:
    return wrap64(a << (b & 63))


def _fold_shr(a: int, b: int) -> int:
    # Arithmetic shift right on the signed value.
    return wrap64(a >> (b & 63))


#: One fold per binary opcode, ``dst <- fold(a, b)``: the single source
#: of truth for binary arithmetic.  :func:`fold_binary` reads it, and the
#: virtual machine indexes it by an instruction's subop.  The in-range
#: tests only skip :func:`wrap64` where it would return its argument.
BINARY_FOLDS: Dict[Opcode, Callable[[int, int], int]] = {
    Opcode.ADD: _fold_add,
    Opcode.SUB: _fold_sub,
    Opcode.MUL: _fold_mul,
    Opcode.DIV: sdiv64,
    Opcode.MOD: smod64,
    Opcode.AND: _fold_and,
    Opcode.OR: _fold_or,
    Opcode.XOR: _fold_xor,
    Opcode.SHL: _fold_shl,
    Opcode.SHR: _fold_shr,
    Opcode.EQ: lambda a, b: 1 if a == b else 0,
    Opcode.NE: lambda a, b: 1 if a != b else 0,
    Opcode.LT: lambda a, b: 1 if a < b else 0,
    Opcode.LE: lambda a, b: 1 if a <= b else 0,
    Opcode.GT: lambda a, b: 1 if a > b else 0,
    Opcode.GE: lambda a, b: 1 if a >= b else 0,
}


def fold_binary(op: Opcode, a: int, b: int) -> int:
    """Constant-fold a binary op (through :data:`BINARY_FOLDS`)."""
    fold = BINARY_FOLDS.get(op)
    if fold is None:
        raise ValueError("not a binary opcode: %s" % op)
    return fold(a, b)


def fold_unary(op: Opcode, a: int) -> int:
    """Constant-fold a unary op."""
    if op is Opcode.NEG:
        return wrap64(-a)
    if op is Opcode.NOT:
        return wrap64(~a)
    if op is Opcode.MOV:
        return a
    raise ValueError("not a unary opcode: %s" % op)


class Instr:
    """One IL instruction.

    A single concrete class keeps the IR compact and easy to encode for
    NAIM compaction.  Field usage by opcode:

    ==========  =====  ======  ======  =====  ======  ========
    opcode      dst    a       b       imm    sym     targets
    ==========  =====  ======  ======  =====  ======  ========
    CONST       reg    --      --      int    --      --
    MOV/unary   reg    reg     --      --     --      --
    binary      reg    reg     reg     --     --      --
    LOADG       reg    --      --      --     name    --
    STOREG      --     reg     --      --     name    --
    LOADE       reg    reg     --      --     name    --
    STOREE      --     reg     reg     --     name    --
    CALL        reg?   --      --      --     name    --      (+args)
    RET         --     reg?    --      --     --      --
    BR          --     reg     --      --     --      (t, f)
    JMP         --     --      --      --     --      (t,)
    PROBE       --     --      --      id     --      --
    ==========  =====  ======  ======  =====  ======  ========
    """

    __slots__ = ("op", "dst", "a", "b", "imm", "sym", "args", "targets")

    def __init__(
        self,
        op: Opcode,
        dst: Optional[int] = None,
        a: Optional[int] = None,
        b: Optional[int] = None,
        imm: Optional[int] = None,
        sym: Optional[str] = None,
        args: Tuple[int, ...] = (),
        targets: Tuple[str, ...] = (),
    ) -> None:
        self.op = op
        self.dst = dst
        self.a = a
        self.b = b
        self.imm = imm
        self.sym = sym
        self.args = args if type(args) is tuple else tuple(args)
        self.targets = targets if type(targets) is tuple else tuple(targets)

    # -- Structural queries -------------------------------------------------

    def is_terminator(self) -> bool:
        return self.op in TERMINATORS

    def uses(self) -> Iterator[int]:
        """Yield every virtual register this instruction reads."""
        if self.a is not None:
            yield self.a
        if self.b is not None:
            yield self.b
        for arg in self.args:
            yield arg

    def use_mask(self) -> int:
        """:meth:`uses` as a bitmask (bit *r* = virtual register *r*)."""
        mask = 0
        if self.a is not None:
            mask = 1 << self.a
        if self.b is not None:
            mask |= 1 << self.b
        for arg in self.args:
            mask |= 1 << arg
        return mask

    def has_side_effects(self) -> bool:
        """True when the instruction cannot be removed even if dead."""
        return self.op in SIDE_EFFECT_OPS

    def replace_uses(self, mapping: "dict[int, int]") -> None:
        """Rewrite used registers in place through ``mapping``."""
        if self.a is not None:
            self.a = mapping.get(self.a, self.a)
        if self.b is not None:
            self.b = mapping.get(self.b, self.b)
        if self.args:
            self.args = tuple(mapping.get(r, r) for r in self.args)

    def copy(self) -> "Instr":
        return Instr(
            self.op,
            dst=self.dst,
            a=self.a,
            b=self.b,
            imm=self.imm,
            sym=self.sym,
            args=self.args,
            targets=self.targets,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instr):
            return NotImplemented
        return (
            self.op is other.op
            and self.dst == other.dst
            and self.a == other.a
            and self.b == other.b
            and self.imm == other.imm
            and self.sym == other.sym
            and self.args == other.args
            and self.targets == other.targets
        )

    def __hash__(self) -> int:
        raise TypeError("Instr is mutable and unhashable")

    def __repr__(self) -> str:
        from .printer import format_instr

        return "<Instr %s>" % format_instr(self)
