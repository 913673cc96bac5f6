"""HLO tuning knobs.

Defaults match the behaviour the paper describes: with profiles (PBO),
effort concentrates on hot call sites; without profiles the inliner is
driven by size heuristics alone and "thoroughly optimizes all routines",
with the blow-up consequences §5 reports.
"""

from __future__ import annotations

from typing import Optional


class HloOptions:
    """Optimization policy for one HLO invocation."""

    def __init__(
        self,
        # -- Inlining ------------------------------------------------------
        inline_callee_max_instrs: int = 48,
        inline_hot_callee_max_instrs: int = 150,
        inline_caller_max_instrs: int = 1500,
        inline_routine_growth_factor: float = 3.0,
        inline_program_growth_factor: float = 2.2,
        inline_min_site_weight: int = 1,
        inline_operation_limit: Optional[int] = None,
        inline_schedule_by_module_pair: bool = True,
        inject_inline_bug_after: Optional[int] = None,
        # -- Cloning -------------------------------------------------------
        clone_enabled: bool = True,
        # -- Scalar passes ---------------------------------------------------
        constprop_enabled: bool = True,
        licm_enabled: bool = True,
        dce_enabled: bool = True,
        branch_elim_enabled: bool = True,
        simplify_enabled: bool = True,
        ipcp_enabled: bool = True,
        dead_function_elim_enabled: bool = True,
        # -- Pipeline ----------------------------------------------------------
        max_pass_iterations: int = 4,
        checked: bool = False,
    ) -> None:
        self.inline_callee_max_instrs = inline_callee_max_instrs
        self.inline_hot_callee_max_instrs = inline_hot_callee_max_instrs
        self.inline_caller_max_instrs = inline_caller_max_instrs
        self.inline_routine_growth_factor = inline_routine_growth_factor
        self.inline_program_growth_factor = inline_program_growth_factor
        self.inline_min_site_weight = inline_min_site_weight
        #: Hard cap on the number of inline operations (bug triage,
        #: paper §6.3 "controllable operation limits").
        self.inline_operation_limit = inline_operation_limit
        #: Group cross-module inlines by module pair for loader locality
        #: (paper §4.3).
        self.inline_schedule_by_module_pair = inline_schedule_by_module_pair
        #: Testing aid: miscompile the N-th inline (see repro.triage).
        self.inject_inline_bug_after = inject_inline_bug_after

        self.clone_enabled = clone_enabled

        self.constprop_enabled = constprop_enabled
        self.licm_enabled = licm_enabled
        self.dce_enabled = dce_enabled
        self.branch_elim_enabled = branch_elim_enabled
        self.simplify_enabled = simplify_enabled
        self.ipcp_enabled = ipcp_enabled
        self.dead_function_elim_enabled = dead_function_elim_enabled

        self.max_pass_iterations = max_pass_iterations
        #: Debug builds: verify the IR and the derived data each pass
        #: kept, after every pass, and run every pass the pipeline would
        #: have skipped to see that it changes nothing.
        self.checked = checked

    def copy(self, **overrides) -> "HloOptions":
        clone = HloOptions()
        clone.__dict__.update(self.__dict__)
        clone.__dict__.update(overrides)
        return clone
