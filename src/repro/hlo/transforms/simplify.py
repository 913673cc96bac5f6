"""CFG simplification: unreachable-block removal, jump threading and
straight-line block merging."""

from __future__ import annotations

from typing import Dict, Set

from ...ir.instructions import Instr, Opcode
from ...ir.routine import Routine
from ..analysis.cfg import reachable_labels
from ..passes import CFG, EMPTIED, OptContext, RoutinePass


def remove_unreachable_blocks(routine: Routine, ctx: OptContext) -> bool:
    reachable = reachable_labels(routine)
    dead = {block.label for block in routine.blocks} - reachable
    if not dead:
        return False
    view = ctx.view_for(routine)
    for label in dead:
        view.drop_block(label)
    routine.remove_blocks(dead)
    return True


def thread_trivial_jumps(routine: Routine, ctx: OptContext) -> bool:
    """Retarget edges that go through a block containing only a jump."""
    trivial: Dict[str, str] = {}
    for block in routine.blocks:
        if len(block.instrs) == 1 and block.instrs[0].op is Opcode.JMP:
            trivial[block.label] = block.instrs[0].targets[0]

    # Collapse chains (A->B->C), guarding against jump cycles.
    def final_target(label: str) -> str:
        seen: Set[str] = set()
        while label in trivial and label not in seen:
            seen.add(label)
            label = trivial[label]
        return label

    changed = False
    for block in routine.blocks:
        term = block.terminator
        if term is None or term.op not in (Opcode.BR, Opcode.JMP):
            continue
        new_targets = tuple(final_target(t) for t in term.targets)
        # Avoid threading a block's jump to itself into a self-loop that
        # changes semantics (only identical rewrites are skipped).
        if new_targets != term.targets:
            term.targets = new_targets
            changed = True
    if changed:
        routine.invalidate()
    return changed


def merge_block_chains(routine: Routine, ctx: OptContext) -> bool:
    """Merge B into A when A ends ``jmp B`` and B has A as its only pred."""
    changed = False
    view = ctx.view_for(routine)
    while True:
        preds = routine.predecessors()
        merged = False
        for block in routine.blocks:
            term = block.terminator
            if term is None or term.op is not Opcode.JMP:
                continue
            target_label = term.targets[0]
            if target_label == block.label:
                continue
            if preds[target_label] != [block.label]:
                continue
            if target_label == routine.entry.label:
                continue
            target = routine.block(target_label)
            block.instrs.pop()  # drop the JMP
            block.instrs.extend(target.instrs)
            target.instrs = []
            routine.remove_blocks({target_label})
            view.merge_blocks(block.label, target_label)
            merged = True
            changed = True
            break
        if not merged:
            return changed


class SimplifyCfg(RoutinePass):
    """The combined CFG cleanup phase."""

    name = "simplify"

    #: Everything below reads terminators, their targets and the block
    #: list (``CFG``) and one fact about the rest: whether a block is a
    #: lone jump (``EMPTIED``).  It looks at no other instruction and at
    #: no operand, so ``PROPAGATED``, ``REWRITTEN`` and ``REMOVED``,
    #: which by definition leave both alone, cannot give it work.
    enabled_by = CFG | EMPTIED

    def run(self, routine: Routine, ctx: OptContext) -> int:
        if not ctx.options.simplify_enabled:
            return 0
        # Each helper invalidates what it changed.
        changed = thread_trivial_jumps(routine, ctx)
        changed |= remove_unreachable_blocks(routine, ctx)
        changed |= merge_block_chains(routine, ctx)
        # Degenerate conditional branches become jumps.
        for block in routine.blocks:
            term = block.terminator
            if (
                term is not None
                and term.op is Opcode.BR
                and term.targets[0] == term.targets[1]
            ):
                block.instrs[-1] = Instr(Opcode.JMP, targets=(term.targets[0],))
                changed = True
        if changed:
            routine.invalidate()
        return CFG if changed else 0
