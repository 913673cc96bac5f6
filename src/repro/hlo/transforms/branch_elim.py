"""Redundant branch elimination (named HLO transformation, paper §3).

Covers the branch shapes the constant folder does not:

* branches on a condition that a dominating block already tested and
  whose value is therefore known on this path (dominated branch
  correlation, restricted to identical condition registers with no
  intervening redefinition -- detected via a simple dominator walk);
* branch-to-branch: a conditional branch whose target block consists of
  a single conditional branch on the same register.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ...ir.instructions import Instr, Opcode
from ...ir.routine import Routine
from ..analysis.dominators import immediate_dominators
from ..passes import (
    CFG,
    EMPTIED,
    PROPAGATED,
    REWRITTEN,
    OptContext,
    RoutinePass,
)


def _reg_redefined(routine: Routine, label: str, reg: int) -> bool:
    """Does block ``label`` (re)define ``reg``?"""
    for instr in routine.block(label).instrs:
        if instr.dst == reg:
            return True
    return False


class BranchElimination(RoutinePass):
    name = "branch_elim"

    #: Reads the CFG and its dominators, each branch's condition
    #: register (``PROPAGATED`` renames it), which blocks are a lone
    #: branch (``EMPTIED``) and which blocks define a condition register
    #: on the way down from the branch that pinned it.  ``REMOVED``
    #: cannot clear such a definition: the branch below reads the
    #: register, so a dead definition of it on that single-predecessor
    #: chain is followed, before the branch, by another definition --
    #: in the same block, where the answer stays "redefined", or in a
    #: block the walk up from the branch rejects first.
    enabled_by = CFG | PROPAGATED | REWRITTEN | EMPTIED

    def run(self, routine: Routine, ctx: OptContext) -> int:
        if not ctx.options.branch_elim_enabled:
            return 0
        changed = self._branch_to_branch(routine)
        changed |= self._dominated_branches(routine)
        if changed:
            routine.invalidate()
        return CFG if changed else 0

    # -- Branch-to-branch threading ------------------------------------------------

    def _branch_to_branch(self, routine: Routine) -> bool:
        """If BR r -> T where T is just ``br r, X, Y``, jump straight on.

        Only legal when T defines nothing (a bare branch block): on the
        true edge the condition is known true, so control continues at
        X; likewise for the false edge.
        """
        bare_branches: Dict[str, Tuple[int, str, str]] = {}
        for block in routine.blocks:
            if len(block.instrs) == 1 and block.instrs[0].op is Opcode.BR:
                term = block.instrs[0]
                bare_branches[block.label] = (term.a, term.targets[0],
                                              term.targets[1])
        if not bare_branches:
            return False
        changed = False
        for block in routine.blocks:
            term = block.terminator
            if term is None or term.op is not Opcode.BR:
                continue
            true_target, false_target = term.targets
            if true_target in bare_branches and true_target != block.label:
                reg, next_true, _ = bare_branches[true_target]
                if reg == term.a and next_true != true_target:
                    term.targets = (next_true, false_target)
                    changed = True
            true_target, false_target = term.targets
            if false_target in bare_branches and false_target != block.label:
                reg, _, next_false = bare_branches[false_target]
                if reg == term.a and next_false != false_target:
                    term.targets = (true_target, next_false)
                    changed = True
        return changed

    # -- Dominated identical branches -------------------------------------------------

    def _dominated_branches(self, routine: Routine) -> bool:
        """Fold ``br r`` when an idom chain block branched on ``r`` and
        this block lies purely on one outcome's edge."""
        idom = immediate_dominators(routine)
        preds = routine.predecessors()
        changed = False
        for block in routine.blocks:
            term = block.terminator
            if term is None or term.op is not Opcode.BR:
                continue
            known = self._known_condition(routine, idom, preds, block.label,
                                          term.a)
            if known is None:
                continue
            target = term.targets[0] if known else term.targets[1]
            block.instrs[-1] = Instr(Opcode.JMP, targets=(target,))
            changed = True
        return changed

    def _known_condition(
        self,
        routine: Routine,
        idom: Dict[str, Optional[str]],
        preds: Dict[str, list],
        label: str,
        reg: int,
    ) -> Optional[bool]:
        """Walk the dominator chain looking for a branch that pins ``reg``.

        The value is known only when every step from the dominating
        branch down to ``label`` is a single-predecessor chain on one
        branch outcome and no block in between redefines ``reg``.
        """
        if _reg_redefined(routine, label, reg):
            return None  # the condition is recomputed in this block
        current = label
        steps = 0
        while steps < 64:
            steps += 1
            parent = idom.get(current)
            if parent is None or parent == current:
                return None
            # The chain property: current must be parent's unique-pred child.
            if preds.get(current) != [parent]:
                return None
            if current != label and _reg_redefined(routine, current, reg):
                return None
            parent_term = routine.block(parent).terminator
            if (
                parent_term is not None
                and parent_term.op is Opcode.BR
                and parent_term.a == reg
            ):
                if parent_term.targets[0] == current and (
                    parent_term.targets[1] != current
                ):
                    return True
                if parent_term.targets[1] == current and (
                    parent_term.targets[0] != current
                ):
                    return False
                return None
            if _reg_redefined(routine, parent, reg):
                return None
            current = parent
        return None
