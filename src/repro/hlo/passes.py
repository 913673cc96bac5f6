"""The HLO phase framework (paper §3: "HLO optimizes code through a
series of transformation phases").

A :class:`RoutinePass` transforms one routine; :class:`PassPipeline`
iterates a pass list to a fixed point (bounded).  The shared
:class:`OptContext` carries the global objects every phase may consult:
the program symbol table, mod/ref analysis, profile views and options.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from ..ir.routine import Routine
from ..ir.symbols import ProgramSymbolTable
from ..ir.verifier import assert_valid_routine
from .analysis.modref import ModRefAnalysis
from .options import HloOptions
from .profile_view import ProfileView


class PassStats:
    """Transformations applied and wall-clock seconds spent, per pass
    name (seconds count every run of a pass, changed or not)."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}

    def bump(self, pass_name: str, amount: int = 1,
             seconds: float = 0.0) -> None:
        if amount:
            self.counts[pass_name] = self.counts.get(pass_name, 0) + amount
        if seconds:
            self.seconds[pass_name] = (
                self.seconds.get(pass_name, 0.0) + seconds
            )

    def get(self, pass_name: str) -> int:
        return self.counts.get(pass_name, 0)

    def merge(self, other: "PassStats") -> None:
        """Fold another context's counters into this one (partition
        workers run with private stats, folded back in order)."""
        for pass_name, count in other.counts.items():
            self.bump(pass_name, count)
        for pass_name, seconds in other.seconds.items():
            self.bump(pass_name, 0, seconds)

    def __repr__(self) -> str:
        inner = ", ".join(
            "%s=%d" % (name, count) for name, count in sorted(self.counts.items())
        )
        return "<PassStats %s>" % inner


class OptContext:
    """Shared state for one HLO run."""

    def __init__(
        self,
        symtab: ProgramSymbolTable,
        options: Optional[HloOptions] = None,
        modref: Optional[ModRefAnalysis] = None,
    ) -> None:
        self.symtab = symtab
        self.options = options or HloOptions()
        self.modref = modref
        self.views: Dict[str, ProfileView] = {}
        self.stats = PassStats()
        #: Set of globals proven read-only program-wide (ipcp fills it).
        self.readonly_globals = set()
        #: Routine-name -> known constant return value (ipcp fills it).
        self.const_returns: Dict[str, int] = {}

    def view_for(self, routine: Routine) -> ProfileView:
        view = self.views.get(routine.name)
        if view is None:
            view = ProfileView.static_estimate(routine)
            self.views[routine.name] = view
        return view

    def has_measured_profile(self, routine: Routine) -> bool:
        view = self.views.get(routine.name)
        return view is not None and not view.is_static_estimate


class RoutinePass:
    """Base class for per-routine transformation phases."""

    name = "pass"

    def run(self, routine: Routine, ctx: OptContext) -> bool:
        """Transform ``routine``; return True when anything changed.

        The pass invalidates what it made stale: ``invalidate_instrs()``
        if it left terminators and the block list alone, else
        ``invalidate()``.  Checked builds verify what it kept.
        """
        raise NotImplementedError


class PassPipeline:
    """Runs a fixed list of passes repeatedly until quiescent."""

    def __init__(self, passes) -> None:
        self.passes = list(passes)

    def run_routine(self, routine: Routine, ctx: OptContext) -> int:
        """Optimize one routine; returns total change count."""
        total_changes = 0
        stats = ctx.stats
        clock = time.perf_counter
        for _ in range(ctx.options.max_pass_iterations):
            changed = False
            for phase in self.passes:
                start = clock()
                phase_changed = phase.run(routine, ctx)
                stats.bump(
                    phase.name, 1 if phase_changed else 0, clock() - start
                )
                if phase_changed:
                    changed = True
                    total_changes += 1
                    if ctx.options.checked:
                        assert_valid_routine(routine)
                        routine.derived.verify(routine)
            if not changed:
                break
        return total_changes
