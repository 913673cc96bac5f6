"""Loop-invariant code motion (the paper's "locality and
schedule-enhancing loop transformations" slot, §3).

Pure register arithmetic whose operands are loop-invariant is hoisted
to a freshly created preheader.  Loads of globals are hoisted too when
mod/ref analysis proves nothing in the loop (including calls) can write
the symbol.

Safety conditions in this non-SSA IL (each checked explicitly):

1. the instruction is pure (no side effects) -- arithmetic is total in
   this IL (x/0 == 0), so speculative execution on the zero-trip path
   cannot trap;
2. its destination register has exactly one definition inside the loop;
3. the destination is **not live into the loop header**: that single
   fact rules out both uses-before-def within the loop (they would be
   live around the back edge) and post-loop uses of the pre-loop value
   on the zero-trip path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ...ir.basic_block import BasicBlock
from ...ir.instructions import BINARY_OPS, Instr, Opcode
from ...ir.routine import Routine
from ..analysis.liveness import liveness
from ..analysis.loops import Loop, find_loops
from ..passes import EVERY_KIND, OptContext, RoutinePass

_PURE_OPS = BINARY_OPS | {Opcode.CONST, Opcode.MOV, Opcode.NEG, Opcode.NOT}

#: Cap on loop-carried values LICM may create per loop (register
#: pressure guard; recomputing cheap ops beats spilling).
MAX_EXPORTED = 4


def _loop_definitions(routine: Routine, loop: Loop) -> Dict[int, int]:
    """Map register -> number of definitions inside the loop."""
    counts: Dict[int, int] = {}
    for label in loop.body:
        for instr in routine.block(label).instrs:
            if instr.dst is not None:
                counts[instr.dst] = counts.get(instr.dst, 0) + 1
    return counts


def _loop_may_write(routine: Routine, loop: Loop, ctx: OptContext,
                    sym: str) -> bool:
    """Can anything in the loop store to global ``sym``?  Blocks in
    label order: the answer stops at the first writer, so the mod/ref
    queries made must not hang on the set's hash order."""
    for label in sorted(loop.body):
        for instr in routine.block(label).instrs:
            op = instr.op
            if op in (Opcode.STOREG, Opcode.STOREE) and instr.sym == sym:
                return True
            if op is Opcode.CALL:
                if ctx.modref is None:
                    return True
                if ctx.modref.for_routine(instr.sym).writes(sym):
                    return True
    return False


def _ensure_preheader(routine: Routine, loop: Loop) -> Optional[BasicBlock]:
    """A block that runs exactly once before the loop is entered.

    Entry edges (from outside the loop into the header) are redirected
    through a new block.  Returns None when the header is unreachable
    from outside (degenerate)."""
    preds = routine.predecessors()
    entry_preds = [
        p for p in preds.get(loop.header, []) if p not in loop.body
    ]
    if not entry_preds:
        return None
    # Reuse an existing preheader: a single entry pred that only jumps
    # to the header.
    if len(entry_preds) == 1:
        candidate = routine.block(entry_preds[0])
        term = candidate.terminator
        if (
            term is not None
            and term.op is Opcode.JMP
            and len(candidate.instrs) >= 1
        ):
            return candidate

    preheader = routine.new_block("ph_%s" % loop.header)
    preheader.set_terminator(Instr(Opcode.JMP, targets=(loop.header,)))
    for pred_label in entry_preds:
        routine.block(pred_label).retarget(loop.header, preheader.label)
    routine.invalidate()
    return preheader



_EXPENSIVE_COST = {
    Opcode.MUL: 3,
    Opcode.DIV: 8,
    Opcode.MOD: 8,
    Opcode.LOADG: 2,
}


class LoopInvariantCodeMotion(RoutinePass):
    name = "licm"

    #: Hoistability is syntactic: a register defined once in the loop,
    #: operands defined nowhere in it, the destination not live into
    #: the header.  Even ``REMOVED`` can turn two definitions into one
    #: or drop the use that kept a register live around the back edge,
    #: and ``EMPTIED`` never comes alone: nothing is excluded.
    enabled_by = EVERY_KIND

    def run(self, routine: Routine, ctx: OptContext) -> int:
        if not ctx.options.licm_enabled:
            return 0
        changed = False
        # One loop per sweep, innermost first (find_loops sorts by body
        # size ascending).  Hoisting moves non-terminators only; where
        # it had to insert a preheader, _ensure_preheader has already
        # dropped the CFG-shaped results too.
        for _ in range(16):
            hoisted = False
            for loop in find_loops(routine):
                if self._hoist_from_loop(routine, loop, ctx):
                    changed = True
                    hoisted = True
                    routine.invalidate_instrs()
                    break
            if not hoisted:
                break
        # A hoist moves instructions between blocks, may empty one and
        # may add a preheader; the sweep cap above can also stop short.
        # Claim nothing.
        return EVERY_KIND if changed else 0

    def _hoist_from_loop(
        self, routine: Routine, loop: Loop, ctx: OptContext
    ) -> bool:
        # Only expensive operations earn a loop-carried register (see
        # _prune_for_pressure): a loop without one has nothing to hoist.
        if not any(
            instr.op in _EXPENSIVE_COST
            for label in sorted(loop.body)
            for instr in routine.block(label).instrs
        ):
            return False
        live_in_header = liveness(routine).live_in.get(loop.header, 0)
        def_counts = _loop_definitions(routine, loop)
        # Invariant registers grow as we commit to hoisting their defs.
        invariant_defs: List[Tuple[str, int]] = []  # (label, index)
        planned_defs: Set[Tuple[str, int]] = set()
        invariant_regs: Set[int] = set()

        def is_hoistable(instr: Instr) -> bool:
            dst = instr.dst
            if dst is None or def_counts.get(dst, 0) != 1:
                return False
            if live_in_header >> dst & 1:
                return False
            if instr.op is Opcode.LOADG:
                if _loop_may_write(routine, loop, ctx, instr.sym):
                    return False
            elif instr.op not in _PURE_OPS:
                return False
            return all(
                reg in invariant_regs or not def_counts.get(reg, 0)
                for reg in instr.uses()
            )

        planned = True
        while planned:
            planned = False
            for label in sorted(loop.body):
                block = routine.block(label)
                for index, instr in enumerate(block.instrs):
                    if (label, index) in planned_defs or not is_hoistable(
                        instr
                    ):
                        continue
                    invariant_defs.append((label, index))
                    planned_defs.add((label, index))
                    invariant_regs.add(instr.dst)
                    planned = True

        invariant_defs = self._prune_for_pressure(
            routine, loop, invariant_defs
        )
        if not invariant_defs:
            return False
        preheader = _ensure_preheader(routine, loop)
        if preheader is None:
            return False

        # Extract in deterministic program order, preserving dependences.
        ordered: List[Instr] = []
        for label in [b.label for b in routine.blocks]:
            if label not in loop.body:
                continue
            block = routine.block(label)
            taken = {
                index for (l, index) in invariant_defs if l == label
            }
            if not taken:
                continue
            kept = []
            for index, instr in enumerate(block.instrs):
                if index in taken:
                    ordered.append(instr)
                else:
                    kept.append(instr)
            block.instrs = kept
        # Insert before the preheader's terminator; a dependence-safe
        # order is recomputed by scheduling defs before uses.
        ordered = _dependency_order(ordered)
        insert_at = len(preheader.instrs) - 1
        preheader.instrs[insert_at:insert_at] = ordered

        # Profile view: the preheader runs once per loop entry.
        view = ctx.view_for(routine)
        entry_weight = view.count(loop.header)
        back_weight = sum(
            view.edge(latch, loop.header) for latch, _ in loop.back_edges
        )
        view.set_count(preheader.label, max(entry_weight - back_weight, 1))
        return True


    def _prune_for_pressure(
        self,
        routine: Routine,
        loop: Loop,
        invariant_defs: List[Tuple[str, int]],
    ) -> List[Tuple[str, int]]:
        """Keep only hoists that pay for their register pressure.

        Every hoisted value that the remaining loop body still reads
        becomes loop-carried: it occupies a register (or spills) for the
        whole loop.  Recomputing a cheap op each iteration is cheaper
        than a spill, so only *expensive* operations (MUL/DIV/MOD and
        global loads) are worth exporting, the number of exported
        values is capped, and cheap instructions are hoisted only when
        they feed a kept expensive one.
        """
        by_pos = {
            (label, index): routine.block(label).instrs[index]
            for (label, index) in invariant_defs
        }
        candidate_regs = {instr.dst for instr in by_pos.values()}

        # Producers: candidate position defining each register.
        producer = {instr.dst: pos for pos, instr in by_pos.items()}

        # Roots: expensive candidates, ranked costliest first.
        roots = sorted(
            (pos for pos, instr in by_pos.items()
             if instr.op in _EXPENSIVE_COST),
            key=lambda pos: (-_EXPENSIVE_COST[by_pos[pos].op], pos),
        )
        roots = roots[:MAX_EXPORTED]
        if not roots:
            return []

        # Closure: a kept instruction drags in the candidates feeding it.
        kept = set()
        stack = list(roots)
        while stack:
            pos = stack.pop()
            if pos in kept:
                continue
            kept.add(pos)
            for reg in by_pos[pos].uses():
                feeder = producer.get(reg)
                if feeder is not None and feeder not in kept:
                    stack.append(feeder)
        return [pos for pos in invariant_defs if pos in kept]


def _dependency_order(instrs: List[Instr]) -> List[Instr]:
    """Topologically order hoisted instructions (defs before uses)."""
    remaining = list(instrs)
    ordered: List[Instr] = []
    defined: Set[int] = set()
    all_defs = {i.dst for i in instrs}
    progress = True
    while remaining and progress:
        progress = False
        for instr in list(remaining):
            if all(
                reg not in all_defs or reg in defined
                for reg in instr.uses()
            ):
                ordered.append(instr)
                defined.add(instr.dst)
                remaining.remove(instr)
                progress = True
    ordered.extend(remaining)  # cycles impossible; belt and braces
    return ordered
