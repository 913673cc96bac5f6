"""Constant and copy propagation with algebraic simplification.

A forward dataflow over the CFG computes, for every block entry, a
lattice value per virtual register (TOP / CONST c / BOTTOM); the rewrite
walk then folds instructions, propagates copies locally and applies
algebraic identities.  Semantics (wraparound, total division, shift
masking) come from :func:`repro.ir.fold_binary`, the system's single
source of arithmetic truth.

Also consumes interprocedural facts published in the context:

* ``ctx.readonly_globals`` -- loads of never-written globals fold to
  their initializers (a cross-module win from mod/ref analysis);
* ``ctx.const_returns`` -- calls to pure routines with known constant
  results fold away entirely.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ...ir.instructions import (
    BINARY_OPS,
    Instr,
    Opcode,
    fold_binary,
    fold_unary,
)
from ...ir.routine import Routine
from ..analysis.cfg import reverse_postorder
from ..passes import CFG, PROPAGATED, REWRITTEN, OptContext, RoutinePass

# The lattice, sparsely.  A state maps the registers known to hold a
# constant to that constant; a register it lacks is BOTTOM (conflicting
# or unknown), and a block that has no state yet is TOP everywhere.  An
# entry state knows nothing, so states stay as small as the number of
# constants in flight, not the number of virtual registers.
_State = Dict[int, int]

#: Sweeps of the solver before it gives up and reports no information.
_MAX_SWEEPS = 50


def _value_after(instr: Instr, values: _State, ctx: OptContext) -> Optional[int]:
    """The constant ``instr`` leaves in its ``dst`` given the constants
    in ``values``, or None.  The one abstract step: the solver's
    transfer function and the rewrite walk both advance through it."""
    op = instr.op
    if op is Opcode.CONST:
        return instr.imm
    if op is Opcode.MOV:
        return values.get(instr.a)
    if op in BINARY_OPS:
        a = values.get(instr.a)
        b = values.get(instr.b)
        if a is None or b is None:
            return None
        return fold_binary(op, a, b)
    if op is Opcode.NEG or op is Opcode.NOT:
        a = values.get(instr.a)
        return None if a is None else fold_unary(op, a)
    if op is Opcode.LOADG:
        return _readonly_value(instr.sym, ctx)
    if op is Opcode.CALL:
        return ctx.const_returns.get(instr.sym)
    return None


def _transfer_block(instrs: List[Instr], in_values: _State,
                    ctx: OptContext) -> _State:
    """Abstractly execute a block, returning the out-state."""
    values = dict(in_values)
    for instr in instrs:
        dst = instr.dst
        if dst is None:
            continue
        value = _value_after(instr, values, ctx)
        if value is not None:
            values[dst] = value
        elif dst in values:
            del values[dst]
    return values


def _readonly_value(sym: str, ctx: OptContext) -> Optional[int]:
    if sym in ctx.readonly_globals and ctx.symtab.has_global(sym):
        var = ctx.symtab.lookup_global(sym)
        if not var.is_array:
            return var.init[0]
    return None


def compute_block_inputs(
    routine: Routine, ctx: OptContext
) -> Dict[str, _State]:
    """Fixed-point dataflow: per-block entry states, reachable blocks
    only.  Each state is a fresh dict the caller may consume."""
    rpo = reverse_postorder(routine)
    preds = routine.predecessors()
    entry_label = routine.entry.label
    # None = not visited yet (TOP).
    in_states: Dict[str, Optional[_State]] = dict.fromkeys(rpo)
    in_states[entry_label] = {}
    out_states: Dict[str, _State] = {}

    changed = True
    sweeps = 0
    while changed and sweeps < _MAX_SWEEPS:
        changed = False
        sweeps += 1
        for label in rpo:
            if label != entry_label:
                # Meet: what every processed predecessor agrees on.
                merged: Optional[_State] = None
                for pred in preds[label]:
                    pred_out = out_states.get(pred)
                    if pred_out is None:
                        continue
                    if merged is None:
                        merged = dict(pred_out)
                    else:
                        for reg in [
                            reg for reg, value in merged.items()
                            if pred_out.get(reg) != value
                        ]:
                            del merged[reg]
                if merged is None:
                    merged = {}
                if merged == in_states[label]:
                    continue  # same input, same output
                in_states[label] = merged
            elif label in out_states:
                continue  # the entry state never changes
            new_out = _transfer_block(
                routine.block(label).instrs, in_states[label], ctx
            )
            out_states[label] = new_out
            changed = True
    if changed:
        # Iteration bound hit before the fixed point: fall back to
        # "no information" rather than risk an unsound rewrite.
        return {label: {} for label in rpo}
    return in_states


def _algebraic(instr: Instr, a_const: Optional[int],
               b_const: Optional[int]) -> Optional[Instr]:
    """Identity rewrites of a binary op when one operand is a known
    constant (``a_const``/``b_const``; None when unknown)."""
    op = instr.op
    dst = instr.dst
    # x + 0, x - 0, x | 0, x ^ 0, x << 0, x >> 0
    if b_const == 0 and op in (Opcode.ADD, Opcode.SUB, Opcode.OR, Opcode.XOR,
                               Opcode.SHL, Opcode.SHR):
        return Instr(Opcode.MOV, dst=dst, a=instr.a)
    if a_const == 0 and op in (Opcode.ADD, Opcode.OR, Opcode.XOR):
        return Instr(Opcode.MOV, dst=dst, a=instr.b)
    # x * 1, x / 1
    if b_const == 1 and op in (Opcode.MUL, Opcode.DIV):
        return Instr(Opcode.MOV, dst=dst, a=instr.a)
    if a_const == 1 and op is Opcode.MUL:
        return Instr(Opcode.MOV, dst=dst, a=instr.b)
    # x * 0, 0 * x, x & 0, 0 & x, 0 / x, 0 % x
    if (b_const == 0 and op in (Opcode.MUL, Opcode.AND)) or (
        a_const == 0 and op in (Opcode.MUL, Opcode.AND, Opcode.DIV, Opcode.MOD)
    ):
        return Instr(Opcode.CONST, dst=dst, imm=0)
    if instr.a == instr.b:
        # x - x, x ^ x
        if op in (Opcode.SUB, Opcode.XOR):
            return Instr(Opcode.CONST, dst=dst, imm=0)
        # x == x, x <= x, x >= x / x != x, x < x, x > x
        if op in (Opcode.EQ, Opcode.LE, Opcode.GE):
            return Instr(Opcode.CONST, dst=dst, imm=1)
        if op in (Opcode.NE, Opcode.LT, Opcode.GT):
            return Instr(Opcode.CONST, dst=dst, imm=0)
    return None


class ConstantPropagation(RoutinePass):
    """The main scalar folding phase."""

    name = "constprop"

    #: What a rewrite depends on is the solved value of each operand it
    #: reads, the block-local copy relation and whether two operands
    #: are the same register.
    #:
    #: * ``CFG``: an edge fewer sharpens the meet, a merged block
    #:   lengthens the reach of a copy.
    #: * ``REWRITTEN``: a new move or constant (memopt's forwarded
    #:   load, the algebraic fold below) is one the solver has not
    #:   seen; an unclean deletion may have ended a copy's kill.
    #: * ``PROPAGATED`` is this pass's own and it is idempotent under
    #:   it: a renamed operand has its copy's value, a folded
    #:   instruction computes the constant the solver gave it, an
    #:   algebraic move was unknown before and after, so a second
    #:   solve returns the same states; the second walk meets the same
    #:   moves (with operands already at their roots, which are never
    #:   copies themselves), builds the same copy relation and finds
    #:   every use renamed, every known value folded and no identity
    #:   left that the first walk did not try.
    #: * ``REMOVED``: a deleted definition was dead, so no use it
    #:   could reach exists and the solved value of every operand that
    #:   is read stands; and it ended no copy, because no move that
    #:   stayed above it in its block reads its register.
    #: * ``EMPTIED`` changes no instruction that is left.
    enabled_by = CFG | REWRITTEN

    def run(self, routine: Routine, ctx: OptContext) -> int:
        if not ctx.options.constprop_enabled:
            return 0
        in_states = compute_block_inputs(routine, ctx)
        modref = ctx.modref
        kinds = 0

        for block in routine.blocks:
            # Unreachable blocks have no state; simplify will drop them.
            values = in_states.get(block.label)
            if values is None:
                continue
            # Local copy propagation: dst -> the register it copies, and
            # the reverse map that finds a source's copies when it dies.
            # Sources are never copies themselves (chains are resolved
            # on insertion).
            copies: Dict[int, int] = {}
            copied_to: Dict[int, List[int]] = {}
            instrs = block.instrs

            for index, instr in enumerate(instrs):
                if copies:
                    remap = {
                        reg: copies[reg]
                        for reg in instr.uses()
                        if reg in copies
                    }
                    if remap:
                        instr.replace_uses(remap)
                        kinds |= PROPAGATED

                op = instr.op
                dst = instr.dst
                if dst is None:
                    # Writes no register: both maps stand.  Only a
                    # branch can still fold.
                    if op is Opcode.BR:
                        cond = values.get(instr.a)
                        if cond is not None:
                            target = instr.targets[0 if cond else 1]
                            instrs[index] = Instr(
                                Opcode.JMP, targets=(target,)
                            )
                            kinds |= CFG
                    continue

                # Fold to the constant the abstract step predicts (a
                # call only when the callee is also pure), else try the
                # algebraic identities.
                value = _value_after(instr, values, ctx)
                if value is not None:
                    if op is not Opcode.CONST and (
                        op is not Opcode.CALL
                        or (modref is not None
                            and modref.for_routine(instr.sym).is_pure())
                    ):
                        instrs[index] = instr = Instr(
                            Opcode.CONST, dst=dst, imm=value
                        )
                        kinds |= PROPAGATED
                elif op in BINARY_OPS:
                    a = values.get(instr.a)
                    b = values.get(instr.b)
                    if a is not None or b is not None or instr.a == instr.b:
                        rewritten = _algebraic(instr, a, b)
                        if rewritten is not None:
                            instrs[index] = instr = rewritten
                            value = _value_after(instr, values, ctx)
                            # A constant here (x * 0, x - x) is news to
                            # the solver: other blocks have yet to
                            # hear of it.
                            kinds |= (
                                PROPAGATED if value is None else REWRITTEN
                            )

                # The old value of dst dies: so do its copy and every
                # copy *of* it.
                if copies:
                    source = copies.pop(dst, None)
                    if source is not None:
                        copied_to[source].remove(dst)
                    for copy in copied_to.pop(dst, ()):
                        del copies[copy]
                if instr.op is Opcode.MOV:
                    source = copies.get(instr.a, instr.a)
                    if source != dst:
                        copies[dst] = source
                        copied_to.setdefault(source, []).append(dst)

                if value is not None:
                    values[dst] = value
                elif dst in values:
                    del values[dst]

        if kinds & CFG:
            routine.invalidate()
        elif kinds:
            # No terminator moved: the CFG-shaped results stand.
            routine.invalidate_instrs()
        return kinds
