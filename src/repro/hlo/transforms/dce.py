"""Dead-code elimination driven by liveness.

Removes instructions whose result register is dead and which have no
side effects.  Calls are removable only when the callee is provably
pure (mod/ref analysis) -- the interprocedural DCE the paper's CMO
enables across module boundaries.
"""

from __future__ import annotations

from ...ir.instructions import SIDE_EFFECT_OPS, TERMINATORS, Opcode
from ...ir.routine import Routine
from ..analysis.liveness import liveness
from ..passes import (
    CFG,
    EMPTIED,
    PROPAGATED,
    REMOVED,
    REWRITTEN,
    OptContext,
    RoutinePass,
)

#: Deleting one of these changes what memory forwarding sees between
#: the accesses around it, not just which registers are defined.
_MEMORY_READS = frozenset({Opcode.LOADG, Opcode.LOADE, Opcode.CALL})


class DeadCodeElimination(RoutinePass):
    """One sweep, not a closure: a deleted instruction's operands count
    as read for the rest of the sweep, so a definition only it kept
    alive survives until dead-code elimination runs again.  The
    pipeline schedules that run when this one reports ``REWRITTEN``,
    which it does unless every deleted instruction's operands are read
    again, further down the same block, by an instruction that stays.
    """

    name = "dce"

    #: Liveness reads every operand, every destination and every edge:
    #: ``CFG`` (an edge went, with the uses behind it), ``PROPAGATED``
    #: and ``REWRITTEN`` (operands were renamed away or instructions
    #: replaced) can all leave a definition unread.  ``REMOVED`` cannot:
    #: by its definition every operand of a deleted instruction is still
    #: read below it in its block by an instruction that stayed, so
    #: every register live anywhere before the sweep is live there after
    #: it, and a deleted definition was dead, so nothing became live.
    #: Same liveness, same decisions: nothing more to delete.
    #: ``EMPTIED`` changes no instruction that is left.
    enabled_by = CFG | PROPAGATED | REWRITTEN

    def run(self, routine: Routine, ctx: OptContext) -> int:
        if not ctx.options.dce_enabled:
            return 0
        modref = ctx.modref
        live_out = liveness(routine).live_out
        kinds = 0
        for block in routine.blocks:
            # Walk backwards with the registers live *after* the
            # instruction at hand.  Deleted instructions still feed
            # their uses into the mask (see the class docstring).
            live = live_out[block.label]
            instrs = block.instrs
            dead = set()
            # Registers an instruction that stays reads between here
            # and their next definition below: what keeps a deleted
            # instruction's operands alive without looking past the
            # block.
            still_read = 0
            # Destinations of deleted definitions with no staying
            # definition of the same register between here and there.
            freed = 0
            for index in range(len(instrs) - 1, -1, -1):
                instr = instrs[index]
                op = instr.op
                dst = instr.dst
                uses = instr.use_mask()
                removable = False
                if op in TERMINATORS:
                    pass
                elif op is Opcode.MOV and dst == instr.a:
                    # The register is live, yet the passes that track
                    # definitions took the move for a new value of it:
                    # not a clean deletion.
                    removable = True
                    kinds |= REWRITTEN
                elif dst is None or not live >> dst & 1:
                    # Nobody reads the (possibly absent) result.
                    removable = (
                        dst is not None and op not in SIDE_EFFECT_OPS
                    ) or (
                        op is Opcode.CALL
                        and modref is not None
                        and modref.for_routine(instr.sym).is_pure()
                    )
                if removable:
                    dead.add(index)
                    # Nor is it clean when an operand may have lost its
                    # last reader, or when memory forwarding tracked
                    # the instruction.
                    if uses & ~still_read or op in _MEMORY_READS:
                        kinds |= REWRITTEN
                    if dst is not None:
                        freed |= 1 << dst
                        live &= ~(1 << dst)
                else:
                    if freed:
                        # A deleted definition of ``r`` further down no
                        # longer ends the facts this instruction
                        # starts: ``x`` copies ``r`` (constprop), ``r``
                        # holds a global (memopt).
                        if (op is Opcode.MOV or op is Opcode.STOREG) \
                                and freed >> instr.a & 1:
                            kinds |= REWRITTEN
                        if dst is not None and freed >> dst & 1:
                            if op is Opcode.LOADG:
                                kinds |= REWRITTEN
                            freed &= ~(1 << dst)
                    if dst is not None:
                        keep = ~(1 << dst)
                        live &= keep
                        still_read &= keep
                    still_read |= uses
                live |= uses
            if dead:
                block.instrs = instrs = [
                    instr for index, instr in enumerate(instrs)
                    if index not in dead
                ]
                kinds |= REMOVED if len(instrs) > 1 else REMOVED | EMPTIED
        if kinds:
            # Only non-terminators went: the CFG-shaped results stand.
            routine.invalidate_instrs()
        return kinds
