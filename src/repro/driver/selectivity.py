"""Coarse- and fine-grained selectivity (paper §5).

Coarse-grained: "the user specifies a selection percentage.  Using the
profile data, the compiler orders all the call sites within the program
by call frequency, and then retains only the selected percentage of
sites.  The compiler then identifies the modules containing the callers
and callees of the selected sites.  These modules are compiled with CMO
and PBO.  The remaining modules bypass HLO entirely."

Fine-grained: within the CMO module set, only routines participating in
selected sites (callers and callees) get full optimization effort;
everything else is scanned for global-usage facts and left unloaded.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from ..ir.module import Module
from ..profiles.database import ProfileDatabase


class SelectivityPlan:
    """The outcome of the selection process (observable in benches)."""

    def __init__(self) -> None:
        self.cmo_modules: List[str] = []
        self.selected_routines: Set[str] = set()
        self.selected_sites = 0
        self.total_sites = 0
        self.selected_lines = 0
        self.total_lines = 0
        self.percent = 100.0
        #: module -> "cmo" | "warm" | "cold" (multi-layer mode, paper §8).
        self.layer_of: Dict[str, str] = {}

    @property
    def line_fraction(self) -> float:
        if self.total_lines == 0:
            return 0.0
        return self.selected_lines / self.total_lines

    def __repr__(self) -> str:
        return (
            "<SelectivityPlan %.0f%%: %d/%d sites, %d modules, "
            "%.0f%% of lines>"
            % (
                self.percent,
                self.selected_sites,
                self.total_sites,
                len(self.cmo_modules),
                100 * self.line_fraction,
            )
        )


def plan_selectivity(
    percent: Optional[float],
    modules: List[Module],
    profile_db: Optional[ProfileDatabase],
    multi_layer: bool = False,
) -> SelectivityPlan:
    """Choose the CMO module set and the selected-routine set.

    ``percent=None`` (or no profile data) selects everything -- the
    paper's pure-CMO mode.  With ``multi_layer`` (the paper's §8
    extension), non-CMO modules are further split into *warm* (executed
    during training: default optimization) and *cold* (never executed:
    minimal optimization).
    """
    plan = SelectivityPlan()
    plan.total_lines = sum(module.source_lines for module in modules)

    routine_module: Dict[str, str] = {}
    for module in modules:
        for name in module.routines:
            routine_module[name] = module.name

    if percent is None or profile_db is None:
        plan.percent = 100.0
        plan.cmo_modules = [module.name for module in modules]
        plan.selected_routines = set(routine_module)
        plan.selected_lines = plan.total_lines
        # Count sites for reporting.
        sites = _ranked_sites(profile_db)
        plan.total_sites = len(sites)
        plan.selected_sites = len(sites)
        return plan

    plan.percent = percent
    sites = _ranked_sites(profile_db)
    plan.total_sites = len(sites)
    keep = int(math.ceil(len(sites) * percent / 100.0))
    retained = sites[:keep]
    plan.selected_sites = len(retained)

    selected_modules: Dict[str, None] = {}
    selected_routines: Set[str] = set()
    for caller, _block, _index, callee, _weight in retained:
        for name in (caller, callee):
            selected_routines.add(name)
            module_name = routine_module.get(name)
            if module_name is not None:
                selected_modules.setdefault(module_name)
    # Keep module order deterministic (input order).
    plan.cmo_modules = [
        module.name for module in modules if module.name in selected_modules
    ]
    plan.selected_routines = selected_routines
    plan.selected_lines = sum(
        module.source_lines
        for module in modules
        if module.name in selected_modules
    )
    if multi_layer:
        _assign_layers(plan, modules, profile_db)
    return plan


def _assign_layers(
    plan: SelectivityPlan,
    modules: List[Module],
    profile_db: Optional[ProfileDatabase],
) -> None:
    """Split non-CMO modules into warm (executed) and cold (never run)."""
    module_weight: Dict[str, int] = {module.name: 0 for module in modules}
    if profile_db is not None:
        routine_module = {
            name: module.name
            for module in modules
            for name in module.routines
        }
        for name, profile in profile_db.routines.items():
            owner = routine_module.get(name)
            if owner is not None:
                module_weight[owner] = (
                    module_weight.get(owner, 0) + profile.total_block_weight()
                )
    cmo_set = set(plan.cmo_modules)
    for module in modules:
        if module.name in cmo_set:
            plan.layer_of[module.name] = "cmo"
        elif module_weight.get(module.name, 0) > 0:
            plan.layer_of[module.name] = "warm"
        else:
            plan.layer_of[module.name] = "cold"


def _ranked_sites(
    profile_db: Optional[ProfileDatabase],
) -> List[Tuple[str, str, int, str, int]]:
    """All call sites as (caller, block, index, callee, weight), ranked.

    Zero-weight sites are excluded: selecting never-executed sites
    cannot help performance (and the paper ranks by call frequency).
    """
    if profile_db is None:
        return []
    sites: List[Tuple[str, str, int, str, int]] = []
    for name, profile in profile_db.routines.items():
        for (block, index, callee), count in profile.call_counts.items():
            if count > 0:
                sites.append((name, block, index, callee, count))
    sites.sort(key=lambda s: (-s[4], s[0], s[1], s[2], s[3]))
    return sites
