"""Procedure cloning (named HLO transformation, paper §3).

When a call site passes literal constants but *other* sites disagree
(so plain interprocedural constant propagation cannot bind the
parameter), a specialized copy of the callee is created with the
constants materialized at its entry; the matching sites are retargeted
to the clone.  Follow-up constant propagation then specializes the
clone's body.

Clones are named ``<callee>::cl<N>``; they are module-static to the
callee's defining module.

Planning and application decide over
:class:`~repro.incr.summary.RoutineFacts` and record a :class:`CloneOp`
per clone on the WPA plan; :func:`make_clone` builds the real body at
replay.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ...incr.summary import RoutineFacts, apply_entry_bindings
from ...ir.program import ENTRY_NAME
from ...ir.routine import Routine
from ..passes import OptContext
from ..profile_view import ProfileView
from .ipcp import apply_param_constants

#: Most clones one link may create.
MAX_CLONES = 64
#: Largest callee (in instructions) worth a specialized copy.
CLONE_CALLEE_MAX_INSTRS = 60
#: Fewest literal arguments a site must pass to be cloned for.
CLONE_MIN_CONST_ARGS = 1


class CloneDecision:
    """One planned specialization."""

    __slots__ = ("callee", "bindings", "sites", "weight")

    def __init__(
        self,
        callee: str,
        bindings: Tuple[Tuple[int, int], ...],
        sites: List[Tuple[str, str, int]],
        weight: int,
    ) -> None:
        self.callee = callee
        #: ((param_index, constant), ...) sorted by param index.
        self.bindings = bindings
        #: (caller, block_label, instr_index) sites to retarget.
        self.sites = sites
        self.weight = weight

    def __repr__(self) -> str:
        return "<CloneDecision %s %r (%d sites, w=%d)>" % (
            self.callee,
            self.bindings,
            len(self.sites),
            self.weight,
        )


class CloneOp:
    """One clone creation plus the site retargets that aim at it."""

    __slots__ = ("clone", "origin", "bindings", "retargets")

    def __init__(self, clone: str, origin: str,
                 bindings: Tuple[Tuple[int, int], ...],
                 retargets: List[Tuple[str, str, int]]) -> None:
        self.clone = clone
        self.origin = origin
        self.bindings = bindings
        #: (caller, block_label, instr_index) with post-IPCP indexes.
        self.retargets = retargets


def plan_clones(
    ctx: OptContext,
    caller_order: List[str],
    facts_by_name: Dict[str, RoutineFacts],
) -> List[CloneDecision]:
    """Group call sites by (callee, constant signature) worth cloning."""
    if not ctx.options.clone_enabled:
        return []
    groups: Dict[Tuple[str, tuple], CloneDecision] = {}
    total_sites: Dict[str, int] = {}
    for caller_name in caller_order:
        caller = facts_by_name.get(caller_name)
        if caller is None:
            continue
        view = ctx.views.get(caller_name)
        for site in caller.sites:
            if site.callee == caller_name or site.callee == ENTRY_NAME:
                continue
            total_sites[site.callee] = total_sites.get(site.callee, 0) + 1
            callee = facts_by_name.get(site.callee)
            if callee is None or callee.n_params == 0:
                continue
            if callee.instr_count > CLONE_CALLEE_MAX_INSTRS:
                continue
            bindings = tuple(
                (param_index, value)
                for param_index, (_reg, value, _hd) in enumerate(site.args)
                if value is not None
            )
            if len(bindings) < CLONE_MIN_CONST_ARGS:
                continue
            key = (site.callee, bindings)
            weight = view.count(site.block_label) if view is not None else 0
            decision = groups.get(key)
            if decision is None:
                decision = CloneDecision(site.callee, bindings, [], 0)
                groups[key] = decision
            decision.sites.append(
                (caller_name, site.block_label, site.index)
            )
            decision.weight += weight
    # Cloning pays off only when call sites *disagree*: if one signature
    # covers every observed site of a callee, interprocedural constant
    # propagation already binds those parameters in place.
    worthwhile = [
        decision
        for decision in groups.values()
        if len(decision.sites) < total_sites.get(decision.callee, 0)
    ]
    # Deterministic order: heaviest first, then name/signature.
    return sorted(
        worthwhile,
        key=lambda d: (-d.weight, d.callee, d.bindings),
    )


def make_clone(callee: Routine, bindings, clone_name: str) -> Routine:
    """Specialized copy of ``callee`` with constants bound at entry."""
    clone = callee.copy(new_name=clone_name)
    clone.exported = False
    clone.annotations["cloned_from"] = callee.name
    apply_param_constants(clone, bindings)
    return clone


def clone_facts(
    ctx: OptContext,
    decisions: List[CloneDecision],
    facts_by_name: Dict[str, RoutineFacts],
    plan,
) -> List[str]:
    """The facts half of cloning: each clone's facts, profile view and
    mod/ref copy, and the retargets of its sites.

    The body work (copying the origin, retargeting call instructions)
    is appended to ``plan.clones`` for replay.  A clone's facts are
    copied from the origin's *current* facts, so retargets applied to
    the origin by earlier decisions in this loop are inherited.
    Returns the clone names, in creation order.
    """
    created: List[str] = []
    serial = 0
    for decision in decisions:
        if len(created) >= MAX_CLONES:
            break
        callee = facts_by_name.get(decision.callee)
        if callee is None:
            continue
        clone_name = "%s::cl%d" % (decision.callee, serial)
        serial += 1
        cloned = callee.copy(new_name=clone_name)
        cloned.exported = False
        apply_entry_bindings(cloned, list(decision.bindings))
        facts_by_name[clone_name] = cloned
        created.append(clone_name)
        # Clone inherits the callee's profile shape and effects.
        callee_view = ctx.views.get(decision.callee)
        if callee_view is not None:
            ctx.views[clone_name] = ProfileView(
                clone_name,
                block_counts=callee_view.block_counts,
                edge_counts=callee_view.edge_counts,
                is_static_estimate=callee_view.is_static_estimate,
            )
        cloned.view = ctx.views.get(clone_name)
        if ctx.modref is not None:
            ctx.modref.info[clone_name] = ctx.modref.for_routine(
                decision.callee
            )
        retargets: List[Tuple[str, str, int]] = []
        for caller_name, block_label, index in decision.sites:
            caller = facts_by_name.get(caller_name)
            if caller is None:
                continue
            for site in caller.sites:
                if (site.block_label == block_label
                        and site.index == index
                        and site.callee == decision.callee):
                    site.callee = clone_name
                    retargets.append((caller_name, block_label, index))
                    break
        plan.clones.append(
            CloneOp(clone_name, decision.callee, decision.bindings,
                    retargets)
        )
    return created


def register_clones(
    ctx: OptContext,
    unit,
    clones: List[str],
    facts_by_name: Dict[str, RoutineFacts],
) -> None:
    """The link's half of cloning: each clone's symbol-table entries,
    its place in the unit's canonical name order (``routine_module``;
    replay adopts its body into ``routine_handles``), and its pass-stat
    bump."""
    for clone_name in clones:
        module_name = facts_by_name[clone_name].module
        symtab_obj = unit.symtab_handles[module_name].get()
        symtab_obj.add_routine(clone_name)
        ctx.symtab.define_routine(clone_name, module_name)
        unit.symtab_handles[module_name].request_unload()
        unit.routine_module[clone_name] = module_name
        ctx.stats.bump("clone")
