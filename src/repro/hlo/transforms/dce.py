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
from ..passes import OptContext, RoutinePass


class DeadCodeElimination(RoutinePass):
    name = "dce"

    def run(self, routine: Routine, ctx: OptContext) -> bool:
        if not ctx.options.dce_enabled:
            return False
        modref = ctx.modref
        live_out = liveness(routine).live_out
        changed = False
        for block in routine.blocks:
            # Walk backwards with the registers live *after* the
            # instruction at hand.  Removed instructions still feed
            # their uses into the mask: what they kept alive dies in
            # the next round, once liveness is recomputed without them.
            live = live_out[block.label]
            instrs = block.instrs
            dead = set()
            for index in range(len(instrs) - 1, -1, -1):
                instr = instrs[index]
                op = instr.op
                dst = instr.dst
                if op in TERMINATORS:
                    pass
                elif op is Opcode.MOV and dst == instr.a:
                    dead.add(index)
                elif dst is None or not live >> dst & 1:
                    # Nobody reads the (possibly absent) result.
                    if (dst is not None and op not in SIDE_EFFECT_OPS) or (
                        op is Opcode.CALL
                        and modref is not None
                        and modref.for_routine(instr.sym).is_pure()
                    ):
                        dead.add(index)
                if dst is not None:
                    live &= ~(1 << dst)
                live |= instr.use_mask()
            if dead:
                block.instrs = [
                    instr for index, instr in enumerate(instrs)
                    if index not in dead
                ]
                changed = True
        if changed:
            # Only non-terminators went: the CFG-shaped results stand.
            routine.invalidate_instrs()
        return changed
