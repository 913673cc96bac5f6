"""The HLO phase framework (paper §3: "HLO optimizes code through a
series of transformation phases").

A :class:`RoutinePass` transforms one routine; :class:`PassPipeline`
iterates a pass list to a fixed point (bounded).  The shared
:class:`OptContext` carries the global objects every phase may consult:
the program symbol table, mod/ref analysis, profile views and options.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..ir.routine import Routine
from ..ir.symbols import ProgramSymbolTable
from ..ir.verifier import assert_valid_routine
from .analysis.modref import ModRefAnalysis
from .options import HloOptions
from .profile_view import ProfileView


# -- Kinds of change ---------------------------------------------------------------
#
# What :meth:`RoutinePass.run` returns: the union of the kinds of change
# it made, 0 for none.  A kind says which facts about the routine may
# differ from before, in the terms the passes read them in; each pass
# names the kinds that can enable it (:attr:`RoutinePass.enabled_by`)
# and argues, kind by kind, why no other can.

#: An edge, a terminator's opcode or the block list changed.
CFG = 1
#: Constant propagation's normal form, reported by it alone: operands
#: renamed to the register they copy, instructions replaced by the
#: constant (or the move of the one unknown operand) the solver already
#: evaluated them to.  Every register holds what it held at every
#: point; the solver's states and the block-local copy relation are
#: what they were.
PROPAGATED = 2
#: Any other change to non-terminators: replaced, inserted, moved or
#: deleted with no sharper kind below to vouch for it.
REWRITTEN = 4
#: Dead-code elimination's clean deletions, reported by it alone:
#: definitions nobody read, each operand of which a surviving
#: instruction still reads further down its block, and none of which
#: ended a block-local fact (a copy, a register holding a global).
REMOVED = 8
#: A deletion left a block with nothing but its terminator.
EMPTIED = 16
#: What a pass that returns plain ``True`` is taken to have reported.
EVERY_KIND = CFG | PROPAGATED | REWRITTEN | REMOVED | EMPTIED

_KIND_NAMES = ((CFG, "cfg"), (PROPAGATED, "propagated"),
               (REWRITTEN, "rewritten"), (REMOVED, "removed"),
               (EMPTIED, "emptied"))


def kind_names(kinds: int) -> List[str]:
    """The names of the kinds in a mask, for messages."""
    return [name for bit, name in _KIND_NAMES if kinds & bit]


class UnsignalledEnablementError(Exception):
    """Checked builds: a pass the pipeline would have skipped changed
    the routine.

    Some pass reported fewer kinds of change than it made, or
    ``pass_name`` declares fewer enablers than it has: an unchecked
    build would have stopped short of the fixed point.  ``kinds`` is
    everything reported since ``pass_name`` last ran."""

    def __init__(self, pass_name: str, routine: str, kinds: int) -> None:
        super().__init__(pass_name, routine, kinds)
        self.pass_name = pass_name
        self.routine = routine
        self.kinds = kinds

    def __str__(self) -> str:
        return (
            "pass %s changed routine %s although nothing reported since "
            "its last run (%s) is declared to enable it"
            % (self.pass_name, self.routine,
               ", ".join(kind_names(self.kinds)) or "no change")
        )


class PassStats:
    """What the scalar pipeline did, per pass name: transformations
    applied (``counts``), wall-clock seconds over every run, changed or
    not (``seconds``), executions (``runs``) and executions the
    scheduler proved unnecessary (``skips``).  ``capped`` names the
    routines whose pipeline was still changing when it ran out of
    iterations."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}
        self.runs: Dict[str, int] = {}
        self.skips: Dict[str, int] = {}
        self.capped: List[str] = []

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
        for mine, theirs in ((self.runs, other.runs),
                             (self.skips, other.skips)):
            for pass_name, count in theirs.items():
                mine[pass_name] = mine.get(pass_name, 0) + count
        self.capped.extend(other.capped)

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

    #: The kinds of change, made by any pass including this one, after
    #: which a further run of this pass may find something to do.  The
    #: default claims nothing: every kind.  A pass that narrows it
    #: argues each excluded kind in a comment where it does; checked
    #: builds hold it to the argument.
    enabled_by = EVERY_KIND

    def run(self, routine: Routine, ctx: OptContext) -> int:
        """Transform ``routine``; return the kinds of change made (0
        when nothing changed; plain ``True`` counts as every kind).

        The pass invalidates what it made stale: ``invalidate_instrs()``
        if it left terminators and the block list alone, else
        ``invalidate()``.  Checked builds verify what it kept.
        """
        raise NotImplementedError


class PassPipeline:
    """Runs a fixed list of passes, in order, round after round, until
    a round changes nothing (bounded by ``max_pass_iterations``).

    After the first round a pass runs only if some pass has since its
    own last run reported a kind of change that enables it.  A skipped
    run would have changed nothing, so the runs that are made include
    every changing run of the exhaustive schedule
    (``tests/hlo/reference_pipeline.py``), in the same order, and the
    routine ends up instruction for instruction the same.  Checked
    builds run what would have been skipped and raise
    :class:`UnsignalledEnablementError` if it changes anything."""

    def __init__(self, passes) -> None:
        self.passes = list(passes)

    def run_routine(self, routine: Routine, ctx: OptContext) -> int:
        """Optimize one routine; returns total change count."""
        total_changes = 0
        stats = ctx.stats
        runs = stats.runs
        skips = stats.skips
        checked = ctx.options.checked
        clock = time.perf_counter
        passes = self.passes
        # Per pass: the kinds reported since it last ran.  Nothing has
        # run yet, so the first round runs everything.
        since = [EVERY_KIND] * len(passes)
        slots = range(len(passes))
        changed = False
        for _ in range(ctx.options.max_pass_iterations):
            changed = False
            for slot in slots:
                phase = passes[slot]
                name = phase.name
                if not since[slot] & phase.enabled_by:
                    skips[name] = skips.get(name, 0) + 1
                    if checked and phase.run(routine, ctx):
                        raise UnsignalledEnablementError(
                            name, routine.name, since[slot]
                        )
                    continue
                since[slot] = 0
                start = clock()
                kinds = phase.run(routine, ctx)
                stats.bump(name, 1 if kinds else 0, clock() - start)
                runs[name] = runs.get(name, 0) + 1
                if kinds:
                    if kinds is True:
                        kinds = EVERY_KIND
                    for other in slots:
                        since[other] |= kinds
                    changed = True
                    total_changes += 1
                    if checked:
                        assert_valid_routine(routine)
                        routine.derived.verify(routine)
            if not changed:
                break
        if changed:
            # Out of iterations with the last round still changing: not
            # a fixed point, and the build report says so.
            stats.capped.append(routine.name)
        return total_changes
