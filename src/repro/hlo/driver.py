"""The high-level optimizer driver.

Orchestrates one CMO compilation: every routine is scanned once into
:class:`~repro.incr.summary.RoutineFacts` ("a minimum amount of
analysis ... to ensure that all information available about data
accesses is known", §5) and its pool retired to the NAIM loader.  The
WPA's answer is one value, an :class:`AppliedWpa`: a deciding link
computes it from the facts alone (:meth:`AppliedWpa.decide`: DFE,
IPCP, cloning and inlining, the body mutations they imply recorded on
a :class:`~repro.hlo.thin.WpaPlan`); an incremental link whose WPA
inputs equal the last link's derives the same value from that link's
stored :class:`~repro.hlo.thin.WpaOutcome` (:meth:`AppliedWpa.derive`).
Either way the link applies it once.  Phase 5 replays the plan onto
the real bodies and runs the scalar pipeline over the *selected*
routines while everything else stays unloaded; given a code generator
it compiles each routine while its body is still expanded and retires
the pool, so that where NAIM is engaged a finished unit lists names
and holds no bodies.

The :class:`CmoUnit` is the authoritative container during optimization
-- global objects (program symbol table, call graph) hold only
:class:`Handle` references downward, per Figure 3's object discipline.
"""

from __future__ import annotations

import time
from typing import AbstractSet, Callable, Dict, List, Optional, Set, Tuple

from ..incr.summary import (
    RoutineFacts,
    compute_routine_keys,
    extract_routine_facts,
)
from ..ir.callgraph import CallGraph, CallGraphNode
from ..ir.module import Module
from ..ir.program import Program
from ..ir.routine import Routine
from ..memo import Memo
from ..naim.config import NaimConfig, NaimLevel
from ..naim.loader import Loader
from ..naim.memory import (
    MemoryAccountant,
    callgraph_bytes,
    program_symtab_bytes,
    routine_facts_bytes,
)
from ..naim.pools import Handle
from ..naim.repository import Repository
from ..profiles.correlate import correlate
from ..profiles.database import ProfileDatabase
from .analysis.modref import ModRefAnalysis, ModRefInfo
from .options import HloOptions
from .passes import OptContext, PassPipeline
from .profile_view import ProfileView
from .thin import WpaOutcome, WpaPlan, replay_plan
from .transforms.branch_elim import BranchElimination
from .transforms.clone import (
    CloneDecision,
    clone_facts,
    plan_clones,
    register_clones,
)
from .transforms.constprop import ConstantPropagation
from .transforms.dce import DeadCodeElimination
from .transforms.dfe import eliminate_dead_functions, reachable_routines
from .transforms.inline import InlineEngine, InlineStats, apply_splices
from .transforms.ipcp import (
    apply_param_bindings,
    publish_interprocedural_facts,
)
from .transforms.licm import LoopInvariantCodeMotion
from .transforms.memopt import MemoryForwarding
from .transforms.simplify import SimplifyCfg


def standard_pipeline() -> PassPipeline:
    """The scalar optimization pipeline run on each selected routine."""
    return PassPipeline(
        [
            SimplifyCfg(),
            ConstantPropagation(),
            MemoryForwarding(),
            LoopInvariantCodeMotion(),
            BranchElimination(),
            DeadCodeElimination(),
        ]
    )


def run_ltrans(loader: Loader, handles: Dict[str, Handle],
               names: List[str], scalar_set: AbstractSet[str],
               ctx: OptContext, codegen: Optional[Callable],
               retire: Callable[[Handle], None]) -> Dict[str, object]:
    """The LTRANS body, after plan replay: the serial link
    (:meth:`HighLevelOptimizer.run_scalar_phase`) and every partition
    worker (:func:`repro.part.wire.execute_partition_job`) run it on
    their own loader, so their machine code agrees by construction.

    Each of ``names`` is touched once, optimized while pinned if
    ``scalar_set`` names it, then compiled while still expanded and
    ``retire``-d (a spent body is never encoded back) -- or, without
    ``codegen``, left to the lazy unloader.  Returns routine name ->
    what ``codegen`` returned.
    """
    loader.phase = "scalar"
    pipeline = standard_pipeline()
    machines: Dict[str, object] = {}
    try:
        for index, name in enumerate(names):
            # One routine ahead (the first two at the start), so that
            # repository fetch + decode overlaps this one's work.
            ahead = names[index + 1:index + 2] if index else names[:2]
            loader.prefetch(
                handles[other] for other in ahead
                if handles.get(other) is not None
            )
            handle = handles.get(name)
            routine = handle.get() if handle is not None else None
            if routine is None:
                continue
            if name in scalar_set:
                loader.pin(handle)
                pipeline.run_routine(routine, ctx)
                loader.unpin(handle)
                loader.reaccount(handle)
            if codegen is None:
                handle.request_unload()
                continue
            machines[name] = codegen(routine, ctx.views.get(name))
            retire(handle)
    finally:
        loader.stop_prefetch()
    return machines


class CmoUnit:
    """The set of routines being cross-module optimized, behind handles."""

    def __init__(self, loader: Loader) -> None:
        self.loader = loader
        #: routine name -> handle, for every routine with a body (a WPA
        #: clone has one once replay creates it).
        self.routine_handles: Dict[str, Handle] = {}
        self.symtab_handles: Dict[str, Handle] = {}
        #: routine name -> defining module, clones included: the unit's
        #: canonical name order.
        self.routine_module: Dict[str, str] = {}

    # -- Registration ------------------------------------------------------------

    def add_module(self, module: Module) -> None:
        self.symtab_handles[module.name] = self.loader.register_symtab(
            module.symtab
        )
        for routine in module.routine_list():
            self.add_routine(routine)

    def add_routine(self, routine: Routine) -> Handle:
        handle = self.loader.register_routine(routine)
        self.routine_handles[routine.name] = handle
        self.routine_module[routine.name] = routine.module_name
        return handle

    # -- Access -----------------------------------------------------------------

    def routine(self, name: str) -> Optional[Routine]:
        handle = self.routine_handles.get(name)
        return handle.get() if handle is not None else None

    def handle(self, name: str) -> Optional[Handle]:
        return self.routine_handles.get(name)

    def routine_names(self) -> List[str]:
        return list(self.routine_module)

    def release_spent(self, handle: Handle) -> None:
        """Retire a routine's body: its machine code exists (or is
        reused), and nothing reads the IL again.

        Honors the thresholded level the way :meth:`Loader.evict` does:
        once NAIM is engaged the pool is released (the unit keeps the
        name, the handle stops answering); below the first threshold
        this is a plain unload request -- nothing was going to be
        encoded, and a small link keeps what it always kept.
        """
        if self.loader.effective_level() is NaimLevel.OFF:
            handle.request_unload()
        else:
            self.loader.release_spent(handle)

    def materialize(self, program: Program) -> Program:
        """Write optimized routines back into the Program's modules."""
        for name, module_name in self.routine_module.items():
            module = program.modules.get(module_name)
            handle = self.routine_handles.get(name)
            if module is None or handle is None:
                continue
            routine = handle.get()
            module.routines[name] = routine
            if name not in module.symtab.routine_names:
                module.symtab.routine_names.append(name)
            handle.request_unload()
        program.invalidate()
        return program


class HloResult:
    """Everything downstream stages need from an HLO run."""

    def __init__(
        self,
        program: Program,
        unit: CmoUnit,
        ctx: OptContext,
        inline_stats: InlineStats,
        selected: Set[str],
        removed_functions: List[str],
        clones: List[str],
    ) -> None:
        self.program = program
        self.unit = unit
        self.ctx = ctx
        self.inline_stats = inline_stats
        self.selected = selected
        self.removed_functions = removed_functions
        self.clones = clones
        #: Peak modeled bytes observed during the HLO phase.
        self.peak_bytes = 0
        #: Routines whose scalar pipeline + codegen are served from the
        #: incremental cache (empty without an incremental session).
        self.reused_routines: Set[str] = set()
        #: Wall-clock seconds per driver phase ("wpa" = serial
        #: whole-program phases 0-4.5, "scalar" = phase 5 when run
        #: serially by :meth:`HighLevelOptimizer.run_scalar_phase`,
        #: without the seconds its ``codegen`` callback took),
        #: plus per-pass WPA splits ("wpa.dfe", "wpa.callgraph",
        #: "wpa.ipcp", "wpa.clone", "wpa.inline", ...) and per-pass
        #: scalar splits ("scalar.constprop", "scalar.licm", ...; summed
        #: over the workers when phase 5 ran partitioned).
        self.phase_seconds: Dict[str, float] = {}
        #: Peak modeled bytes at the end of the WPA phases (before any
        #: scalar work): flat in the number of routine bodies.
        self.wpa_peak_bytes = 0
        #: The recorded body-mutation plan phase 5 replays (serially or
        #: inside partition workers).
        self.plan = WpaPlan()
        #: module -> routines dead-function elimination removed.
        self.removal_log: Dict[str, List[str]] = {}
        #: Structured events (summary-cache and machine-blob fallbacks,
        #: scalar pipelines that hit the iteration cap).
        self.events: List[Dict[str, object]] = []
        self._plan_replayed = False

    @property
    def pending_plan(self) -> Optional[WpaPlan]:
        """The plan while its mutations still await replay, else None
        (the bodies are final and must not be mutated again)."""
        return None if self._plan_replayed else self.plan

    def mark_plan_replayed(self) -> None:
        self._plan_replayed = True

    def outcome(self) -> WpaOutcome:
        """What the WPA decided, in the form a later link can apply."""
        return WpaOutcome(self.plan, self.removal_log,
                          self.ctx.const_returns, self.ctx.readonly_globals,
                          self.inline_stats)

    def record_pass_stats(self) -> None:
        """Publish what :class:`PassStats` holds once the scalar phase
        is over (here or folded back from partition workers): the
        seconds as ``scalar.<pass>`` phases, and one
        ``scalar-iteration-cap`` event per routine whose pipeline ran
        out of iterations while still changing."""
        stats = self.ctx.stats
        for name, seconds in stats.seconds.items():
            self.phase_seconds["scalar." + name] = seconds
        for name in stats.capped:
            self.events.append({
                "event": "scalar-iteration-cap",
                "routine": name,
                "iterations": self.ctx.options.max_pass_iterations,
            })

    def compiled_routines(self) -> List[str]:
        """Routines codegen will compile, in canonical unit order: each
        one whose cached machine code is not reused (the whole unit
        without an incremental session)."""
        reused = self.reused_routines
        return [name for name in self.unit.routine_names()
                if name not in reused]

    def scalar_worklist(self) -> List[str]:
        """Routines phase 5 must process, in canonical unit order.

        Selectivity (unselected non-clones) and incremental reuse
        (routines with cached codegen) are already applied; this is the
        exact work a partitioned backend has to cover, and the order
        downstream splicing must preserve.
        """
        clone_set = set(self.clones)
        return [
            name for name in self.compiled_routines()
            if name in self.selected or name in clone_set
        ]

    @property
    def views(self) -> Dict[str, ProfileView]:
        return self.ctx.views

    @property
    def loader(self) -> Loader:
        return self.unit.loader

    @property
    def accountant(self) -> MemoryAccountant:
        return self.unit.loader.accountant

    def __repr__(self) -> str:
        return "<HloResult inlines=%d clones=%d removed=%d selected=%d>" % (
            self.inline_stats.performed,
            len(self.clones),
            len(self.removed_functions),
            len(self.selected),
        )


def _summary_cost(facts_by_name: Dict[str, RoutineFacts]) -> int:
    return sum(routine_facts_bytes(facts) for facts in facts_by_name.values())


def _lap(timings: Dict[str, float], key: str, since: float) -> float:
    now = time.perf_counter()
    timings[key] = timings.get(key, 0.0) + (now - since)
    return now


def build_callgraph(facts_by_name: Dict[str, RoutineFacts]) -> CallGraph:
    """The WPA's call graph, from facts in unit order: a node per
    routine, its sites in facts order, each weighted by the count of
    its block in the caller's profile view."""
    graph = CallGraph()
    for name, facts in facts_by_name.items():
        graph.nodes[name] = CallGraphNode(name, facts.module)
    for name, facts in facts_by_name.items():
        for site in facts.sites:
            graph.add_site(name, site.block_label, site.index, site.callee)
        view = facts.view
        if view is not None:
            for site in graph.nodes[name].call_sites:
                site.weight = view.count(site.block_label)
    return graph


def _views_and_modref(facts_by_name: Dict[str, RoutineFacts]):
    """Each routine's initial profile view, and the whole-program
    mod/ref solved from the facts' direct sets and call edges."""
    views: Dict[str, ProfileView] = {}
    direct: Dict[str, ModRefInfo] = {}
    callees: Dict[str, List[str]] = {}
    for name, facts in facts_by_name.items():
        info = ModRefInfo()
        info.mod = set(facts.mod)
        info.ref = set(facts.ref)
        direct[name] = info
        callees[name] = facts.callees()
        views[name] = facts.view
    return views, ModRefAnalysis.from_direct(direct, callees)


class AppliedWpa:
    """The WPA's answer, apart from this link's program and unit: the
    outcome, the dead-function keep set, the post-decision facts (clones
    included), the views and mod/ref the scalar phase reads, the plan,
    the clone names, the inliner's counters and the pass-stat counts
    the decisions bumped.

    A deciding link computes it from the facts (:meth:`decide`); a link
    whose WPA inputs equal a stored outcome's derives an equal one from
    that outcome (:meth:`derive`).  The incremental state keeps a
    derived one between links under the outcome bytes it came from.  It
    may be shared, so nothing may mutate it: the facts, mod/ref, plan
    and counters are only read after the WPA, and the views the replay
    and the scalar passes edit are copied at the replay scope first
    (:meth:`HighLevelOptimizer.run_scalar_phase`).
    """

    __slots__ = ("outcome", "summary_cost", "keep", "facts", "views",
                 "modref", "plan", "clones", "inline_stats", "counts")

    def __init__(self, outcome: WpaOutcome, summary_cost: int,
                 keep: Optional[Set[str]],
                 facts_by_name: Dict[str, RoutineFacts], ctx: OptContext,
                 plan: WpaPlan, clones: List[str],
                 inline_stats: InlineStats) -> None:
        self.outcome = outcome
        self.summary_cost = summary_cost
        self.keep = keep
        self.facts = facts_by_name
        self.views = ctx.views
        self.modref = ctx.modref
        self.plan = plan
        self.clones = clones
        self.inline_stats = inline_stats
        self.counts = dict(ctx.stats.counts)

    @staticmethod
    def decide(
        facts_by_name: Dict[str, RoutineFacts],
        keep: Optional[Set[str]],
        summary_cost: int,
        symtab,
        options: HloOptions,
        selected: AbstractSet[str],
        has_profiles: bool,
        externally_callable: AbstractSet[str],
        externally_visible_globals: AbstractSet[str],
        accountant: MemoryAccountant,
        timings: Dict[str, float],
    ) -> "AppliedWpa":
        """The decision procedure, from ``facts_by_name`` (pristine
        facts in unit order, mutated and kept) alone: drop the routines
        ``keep`` leaves out, then views and mod/ref, the call graph,
        IPCP, cloning (the graph rebuilt when clones exist) and the
        inline plan over ``selected`` and the clones.

        The call graph is charged to ``accountant`` while it lives and
        each phase is lapped into ``timings`` (``wpa.callgraph``,
        ``wpa.ipcp``, ``wpa.clone``, ``wpa.inline``); no loader, unit
        or body is read.
        """
        tick = time.perf_counter()
        removed: Dict[str, List[str]] = {}
        if keep is not None:
            for name in [name for name in facts_by_name if name not in keep]:
                removed.setdefault(facts_by_name.pop(name).module,
                                   []).append(name)
        ctx = OptContext(symtab, options)
        ctx.views, ctx.modref = _views_and_modref(facts_by_name)
        names = list(facts_by_name)
        callgraph = build_callgraph(facts_by_name)
        accountant.set_usage("global", "callgraph",
                             callgraph_bytes(callgraph))
        tick = _lap(timings, "wpa.callgraph", tick)

        # Phase 2: interprocedural constant facts (the plan records the
        # entry bindings; the facts mutate the way the bodies will).
        plan = WpaPlan()
        publish_interprocedural_facts(
            ctx, names, facts_by_name, symtab.all_global_names(), plan,
            externally_callable=frozenset(externally_callable),
            externally_visible_globals=frozenset(externally_visible_globals),
        )
        accountant.mark("ipcp")
        tick = _lap(timings, "wpa.ipcp", tick)

        # Phase 3: cloning (the plan records each clone and retarget).
        decisions = plan_clones(
            ctx, [name for name in names if name in selected], facts_by_name
        )
        clones = clone_facts(ctx, decisions, facts_by_name, plan)
        if clones:
            callgraph = build_callgraph(facts_by_name)
            accountant.set_usage("global", "callgraph",
                                 callgraph_bytes(callgraph))
        accountant.mark("cloned")
        tick = _lap(timings, "wpa.clone", tick)

        # Phase 4: the inline plan.
        inline_stats = InlineEngine(
            ctx, callgraph, facts_by_name, has_profiles=has_profiles,
            plan=plan,
        ).run(sorted(set(selected) | set(clones)))
        accountant.mark("inlined")
        _lap(timings, "wpa.inline", tick)
        outcome = WpaOutcome(plan, removed, ctx.const_returns,
                             ctx.readonly_globals, inline_stats)
        return AppliedWpa(outcome, summary_cost, keep if removed else None,
                          facts_by_name, ctx, plan, clones, inline_stats)

    @staticmethod
    def derive(outcome: WpaOutcome, facts_by_name: Dict[str, RoutineFacts],
               summary_cost: int, symtab) -> "AppliedWpa":
        """Apply ``outcome`` to ``facts_by_name`` (pristine facts in
        unit order, mutated and kept) through the code :meth:`decide`
        records its decisions with."""
        keep = None
        if outcome.removed:
            keep = set(facts_by_name).difference(*outcome.removed.values())
            for name in list(facts_by_name):
                if name not in keep:
                    del facts_by_name[name]
        ctx = OptContext(symtab)
        ctx.views, ctx.modref = _views_and_modref(facts_by_name)
        plan = WpaPlan()
        apply_param_bindings(ctx, facts_by_name, outcome.plan.bindings, plan)
        clones = clone_facts(
            ctx,
            [CloneDecision(op.origin, op.bindings, op.retargets, 0)
             for op in outcome.plan.clones],
            facts_by_name, plan,
        )
        inline_stats = InlineStats()
        apply_splices(facts_by_name, outcome.plan.splices, plan,
                      inline_stats)
        inline_stats.take_verdicts(outcome.inline_stats)
        return AppliedWpa(outcome, summary_cost, keep, facts_by_name, ctx,
                          plan, clones, inline_stats)

    def context(self, symtab, options: HloOptions) -> OptContext:
        """A link's context on this answer: its views (a new dict of the
        same view objects), mod/ref, published constants and pass
        counts."""
        ctx = OptContext(symtab, options, self.modref)
        ctx.views = dict(self.views)
        ctx.readonly_globals = self.outcome.readonly_globals
        ctx.const_returns = self.outcome.const_returns
        for name, count in self.counts.items():
            ctx.stats.bump(name, count)
        return ctx

    def fields(self) -> Dict[str, object]:
        """Every field in comparable form (the memo's field function)."""
        return {
            "outcome": self.outcome.to_dict(),
            "summary cost": self.summary_cost,
            "keep set": self.keep,
            "facts": [facts.to_dict() for facts in self.facts.values()],
            "views": [
                (name, None if view is None else (
                    view.is_static_estimate, view.block_counts,
                    view.edge_counts))
                for name, view in self.views.items()
            ],
            "modref": [
                (name, info.unknown, sorted(info.mod), sorted(info.ref))
                for name, info in self.modref.info.items()
            ],
            "plan": self.plan.to_dict(),
            "clones": self.clones,
            "inline stats": self.inline_stats.to_dict(),
            "pass stats": self.counts,
        }


def _decision_fields(decided) -> Dict[str, object]:
    """What a link's WPA hands on, from ``(HloResult, reuse keys)``:
    the outcome's fields, the pass counters and each reuse key."""
    result, keys = decided
    fields = dict(sorted(result.outcome().to_dict().items()))
    fields["pass stats"] = result.ctx.stats.counts
    fields.update(("reuse key of " + name, key)
                  for name, key in sorted(keys.items()))
    return fields


class HighLevelOptimizer:
    """Runs CMO over a program (or a subset of its routines)."""

    def __init__(
        self,
        program: Program,
        options: Optional[HloOptions] = None,
        profile_db: Optional[ProfileDatabase] = None,
        naim_config: Optional[NaimConfig] = None,
        repository: Optional[Repository] = None,
        accountant: Optional[MemoryAccountant] = None,
        externally_callable: Optional[Set[str]] = None,
        externally_visible_globals: Optional[Set[str]] = None,
        incr_session=None,
    ) -> None:
        self.program = program
        self.options = options or HloOptions()
        self.profile_db = profile_db
        self.naim_config = naim_config or NaimConfig()
        self.repository = repository
        self.accountant = accountant or MemoryAccountant()
        #: Routines callable from outside the CMO set (selective mode).
        self.externally_callable = set(externally_callable or ())
        self.externally_visible_globals = set(externally_visible_globals or ())
        #: Incremental-CMO session (:class:`repro.incr.IncrLinkSession`).
        #: When present, the driver records summary consumption and
        #: skips the scalar pipeline for modules whose post-inline
        #: reuse key matches a cached codegen blob.
        self.incr_session = incr_session

    # -- Main entry ---------------------------------------------------------------

    def optimize(
        self,
        selected_routines: Optional[Set[str]] = None,
        run_scalar: bool = True,
    ) -> HloResult:
        """Run the full HLO phase sequence and materialize the
        optimized unit into the program.

        ``selected_routines`` is the fine-grained selectivity set: only
        these are inlined into and scalar-optimized; None means all.

        ``run_scalar=False`` stops after the serial whole-program
        phases (the WPA half of a WHOPR-style split): the caller owns
        phase 5 -- either via :meth:`run_scalar_phase` or a partitioned
        parallel backend.
        """
        result = self._decide(selected_routines)[0]
        if run_scalar:
            self.run_scalar_phase(result)
        return result

    def _decide(
        self, selected_routines: Optional[Set[str]]
    ) -> Tuple[HloResult, Dict[str, RoutineFacts]]:
        """WPA: phases 0-4.5; the result and the post-decision facts.

        One straight line: scan the facts; take the answer from the
        incremental session's stored outcome where one applies
        (:meth:`_applied_outcome`); take its keep set, or compute it;
        run dead-function elimination on the program; register every
        pool and retire it; decide from the facts alone
        (:meth:`AppliedWpa.decide`) when no stored answer applied; take
        the link's context from the answer, register its clones and
        derive the reuse keys.  Both sources give equal answers, so
        past the decision only the work a stored answer saves depends
        on which one ran: the reuse keys of routines the edit does not
        reach are carried forward.  Either way the answer's views are
        copied before replay edits them (:meth:`run_scalar_phase`).

        A link that may reuse machine code (an incremental session past
        its first build) registers no routine pool before it knows what
        it compiles: then it registers the replay scope of that
        (:meth:`~repro.hlo.thin.WpaPlan.replay_scope`), and a routine
        outside the scope is a name in the unit and nothing else.

        Bodies are retired to compact/offloaded state right after the
        one extraction scan, so the WPA peak is bounded by summaries,
        call graph and the loader working set, independent of program
        size.  The summary graph dies with the WPA: LTRANS reads bodies,
        the plan, views and mod/ref, never facts or a call graph, so
        once the last reader (reuse keys, the checked reference) is done
        its ``summaries`` and ``callgraph`` charges end, and nothing the
        returned :class:`HloResult` reaches holds either.
        """
        program = self.program
        options = self.options
        wpa_start = time.perf_counter()
        timings: Dict[str, float] = {}
        tick = wpa_start
        incr = self.incr_session
        events: List[Dict[str, object]] = []

        # Facts extraction -- the one body scan.  With an incremental
        # session, an unchanged module's facts come from the cache
        # after a fingerprint check against its current summary; any
        # miss or mismatch falls back to scanning that module, with an
        # event.  Facts that were all loaded are not recorded for
        # commit: they are the blob the repository already holds, and
        # they are the state's (``resident`` names them): copied before
        # anything here mutates them.
        facts_by_name: Dict[str, RoutineFacts] = {}
        resident: List[str] = []
        use_cache = incr is not None and self.profile_db is None
        changed = set(incr.changed_modules) if incr is not None else set()
        for module in program.module_list():
            routines = module.routine_list()
            cached_by_name: Dict[str, RoutineFacts] = {}
            all_loaded = False
            if use_cache and not incr.first_build \
                    and module.name not in changed:
                loaded, reason = incr.load_facts(module.name)
                if loaded is None:
                    events.append({
                        "event": "summary-fallback",
                        "module": module.name,
                        "reason": reason,
                    })
                else:
                    all_loaded = True
                    cached_by_name = {facts.name: facts for facts in loaded}
            for routine in routines:
                facts = cached_by_name.get(routine.name)
                if facts is None:
                    all_loaded = False
                    facts = extract_routine_facts(
                        routine, view=self._initial_view(routine)
                    )
                else:
                    resident.append(routine.name)
                facts_by_name[routine.name] = facts
            if use_cache and not all_loaded:
                incr.record_facts(
                    module.name,
                    [facts_by_name[r.name].to_dict() for r in routines],
                )
        tick = _lap(timings, "wpa.scan", tick)

        # The answer's source: where the facts cache serves, so may the
        # last link's outcome -- equal WPA inputs decide equally.
        stored: Optional[AppliedWpa] = None
        if use_cache:
            stored = self._applied_outcome(
                facts_by_name, resident, selected_routines, bool(events)
            )
            tick = _lap(timings, "wpa.summarize", tick)
        elif incr is not None:
            incr.wpa_reason = "profile"
        reference: Optional[HighLevelOptimizer] = None
        keep: Optional[Set[str]] = None
        if stored is None:
            for name in resident:
                facts_by_name[name] = facts_by_name[name].copy()
            summary_cost = _summary_cost(facts_by_name)
            if options.dead_function_elim_enabled \
                    and not self.externally_callable:
                keep = reachable_routines(facts_by_name)
        else:
            summary_cost, keep = stored.summary_cost, stored.keep
            if options.checked:
                reference = self._reference(program)

        # Phase 0: DFE with the answer's keep set.
        removed: List[str] = []
        removal_log: Dict[str, List[str]] = {}
        if keep is not None:
            removed = eliminate_dead_functions(
                program, keep, removal_log=removal_log
            )
            if incr is not None and removal_log:
                incr.record_dfe(removal_log)
        tick = _lap(timings, "wpa.dfe", tick)

        symtab = program.symtab
        loader = Loader(
            self.naim_config, symtab, self.accountant, self.repository,
            checked=options.checked,
        )
        unit = CmoUnit(loader)
        accountant = loader.accountant
        accountant.set_usage("global", "program_symtab",
                             program_symtab_bytes(symtab))
        accountant.set_usage("global", "summaries", summary_cost)

        # Phase 1: register every pool, then retire it immediately --
        # the facts already hold everything the decisions read, so
        # nothing keeps bodies expanded and the WPA working set stays
        # flat in the number of routine bodies.  A link that may reuse
        # code only lists the names here (phase 4.5 registers).
        may_reuse = incr is not None and not incr.first_build
        for module in program.module_list():
            unit.symtab_handles[module.name] = loader.register_symtab(
                module.symtab
            )
            for routine in module.routine_list():
                if may_reuse:
                    unit.routine_module[routine.name] = module.name
                else:
                    loader.evict(unit.add_routine(routine))
            unit.symtab_handles[module.name].request_unload()
        accountant.mark("scanned")
        tick = _lap(timings, "wpa.callgraph", tick)
        all_names = unit.routine_names()
        if selected_routines is None:
            selected = set(all_names)
        else:
            selected = set(selected_routines) & set(all_names)

        # Phases 2-4, when no stored answer applies.
        answer = stored
        if answer is None:
            answer = AppliedWpa.decide(
                facts_by_name, keep, summary_cost, symtab, options,
                selected, self.profile_db is not None,
                self.externally_callable, self.externally_visible_globals,
                accountant, timings,
            )
            if use_cache:
                incr.record_wpa(answer.outcome.to_dict())
            tick = time.perf_counter()
        facts_by_name = answer.facts
        plan = answer.plan
        clones = list(answer.clones)
        ctx = answer.context(symtab, options)
        register_clones(ctx, unit, clones, facts_by_name)
        # The clones' symbols are in the table now.
        accountant.set_usage("global", "program_symtab",
                             program_symtab_bytes(symtab))
        tick = _lap(timings, "wpa.clone", tick)

        # Phase 4.5 (incremental only): reuse keys.  Evolution hashes
        # over (original body hash, bindings, retargets, ordered
        # splices) determine each post-replay body exactly.  A link
        # that applied the stored outcome derives them only for the
        # routines the edit reaches; the rest keep their committed keys.
        # Then the pools of what replay reads, when phase 1 left them.
        reused: Set[str] = set()
        orig_hashes: Dict[str, str] = {}
        if incr is not None:
            for summary in incr.summaries.values():
                orig_hashes.update(summary.body_hashes)
            reused = incr.decide_reuse(
                compute_routine_keys(
                    unit, ctx, facts_by_name, orig_hashes, plan, selected,
                    set(clones), incr.options_fp,
                    routines=incr.rekeyed_routines(unit, plan),
                ),
                unit.routine_module,
            )
            events.extend(incr.events)
            if may_reuse:
                scope = plan.replay_scope(
                    [name for name in unit.routine_module
                     if name not in reused]
                )
                for module in program.module_list():
                    for routine in module.routine_list():
                        if routine.name in scope:
                            loader.evict(unit.add_routine(routine))
            accountant.mark("summarized")
            tick = _lap(timings, "wpa.summarize", tick)

        result = HloResult(
            program=program,
            unit=unit,
            ctx=ctx,
            inline_stats=answer.inline_stats,
            selected=selected,
            removed_functions=removed,
            clones=clones,
        )
        result.plan = plan
        result.removal_log = removal_log
        result.events = events
        result.peak_bytes = accountant.peak
        result.wpa_peak_bytes = accountant.peak
        result.reused_routines = reused
        result.phase_seconds.update(timings)
        result.phase_seconds["wpa"] = time.perf_counter() - wpa_start
        if reference is not None:
            self._check_reuse(reference, selected_routines, result,
                              orig_hashes)
        accountant.set_usage("global", "summaries", 0)
        accountant.set_usage("global", "callgraph", 0)
        return result, facts_by_name

    def _applied_outcome(
        self,
        facts_by_name: Dict[str, RoutineFacts],
        resident: List[str],
        selected_routines: Optional[Set[str]],
        fell_back: bool,
    ) -> Optional["AppliedWpa"]:
        """What applying the incremental session's stored outcome for
        this link's WPA inputs gives; None when this link must decide.

        ``facts_by_name`` holds every routine's pristine facts, the
        ``resident`` ones the state's own (read here, copied before they
        are applied to).  The :class:`AppliedWpa` is a memo of the
        incremental state under the outcome bytes it was derived from
        (the key of the parsed outcome's memo); a link one of whose
        modules fell back on a scan (``fell_back``) derives it afresh.
        """
        incr = self.incr_session
        program = self.program
        data = incr.lookup_wpa(
            [
                (module.name,
                 [facts_by_name[name] for name in module.routines])
                for module in program.module_list()
            ],
            program.symtab.all_global_names(),
            selected_routines,
            self.externally_callable,
            self.externally_visible_globals,
        )
        if data is None:
            return None
        state = incr.state
        if fell_back:
            state.applied_wpa.clear()
        applied = state.applied_wpa.get(
            state.stored_wpa.key, self._apply_outcome, data, facts_by_name,
            resident, checked=self.options.checked,
        )
        if applied is None:
            incr.reject_wpa()
        return applied

    def _apply_outcome(self, data: dict,
                       facts_by_name: Dict[str, RoutineFacts],
                       resident: List[str]) -> Optional["AppliedWpa"]:
        """Apply the stored outcome ``data`` to ``facts_by_name``, the
        ``resident`` ones copied first; None when it does not parse."""
        try:
            outcome = WpaOutcome.from_dict(data)
        except Exception:
            return None
        summary_cost = _summary_cost(facts_by_name)
        for name in resident:
            facts_by_name[name] = facts_by_name[name].copy()
        return AppliedWpa.derive(outcome, facts_by_name, summary_cost,
                                 self.program.symtab)

    def _reference(self, program: Program) -> "HighLevelOptimizer":
        """A deciding optimizer over a view of ``program`` as it is now
        (own routine dicts and symbol tables, shared bodies, which the
        WPA only reads), for a checked link to compare against."""
        return HighLevelOptimizer(
            Program(module.view() for module in program.module_list()),
            options=self.options,
            naim_config=NaimConfig.pinned(NaimLevel.OFF),
            externally_callable=self.externally_callable,
            externally_visible_globals=self.externally_visible_globals,
        )

    def _check_reuse(
        self,
        reference: "HighLevelOptimizer",
        selected_routines: Optional[Set[str]],
        result: HloResult,
        orig_hashes: Dict[str, str],
    ) -> None:
        """Decide again beside the applied outcome: the stored outcome
        is a memo of deciding under the WPA inputs digest, and its
        fields are what the WPA hands on (:func:`_decision_fields`),
        every routine's reuse key included."""
        incr = self.incr_session

        def decide():
            decided, facts_by_name = reference._decide(selected_routines)
            return decided, compute_routine_keys(
                decided.unit, decided.ctx, facts_by_name, orig_hashes,
                decided.plan, decided.selected, set(decided.clones),
                incr.options_fp,
            )

        keys = {name: key for routine_keys in incr.routine_keys.values()
                for name, key in routine_keys.items()}
        memo = Memo("wpa outcome", _decision_fields)
        memo.keep(incr.wpa_inputs["digest"], (result, keys))
        memo.verify(decide)

    def run_scalar_phase(
        self,
        result: HloResult,
        codegen: Optional[
            Callable[[Routine, Optional[ProfileView]], object]
        ] = None,
    ) -> Dict[str, object]:
        """Phase 5 in the link process: replay, then :func:`run_ltrans`.

        Registered bodies are borrowed (the linker registers its
        objects' IL), and the profile views are the answer's
        (:class:`AppliedWpa`, whose views are the decision's facts'),
        so the replay scope -- everything replay, the passes and codegen
        will edit -- is privatised first, bodies and views; bodies of
        reused routines outside it stay as the frontend left them, and
        stay the caller's: nothing compiles them.

        With ``codegen`` (``LowLevelOptimizer.compile_routine``) the
        body runs over :meth:`HloResult.compiled_routines` and retires
        each with :meth:`CmoUnit.release_spent`; without one it runs
        over the worklist and the unit is materialized into the program.
        Returns what :func:`run_ltrans` does; ``phase_seconds["scalar"]``
        leaves the callback's seconds out.
        """
        clock = time.perf_counter
        start = clock()
        unit = result.unit
        ctx = result.ctx
        loader = unit.loader
        if result.pending_plan is not None:
            # Materialize the WPA decisions onto the real bodies before
            # any scalar work touches them.  Codegen compiles every
            # routine that is not reused, selected or not.
            loader.phase = "replay"
            scope = result.plan.replay_scope(result.compiled_routines())
            views = ctx.views
            for name in scope:
                handle = unit.handle(name)
                if handle is not None:
                    loader.privatize(handle)
                view = views.get(name)
                if view is not None:
                    views[name] = view.copy()
            replay_plan(
                result.plan, scope,
                loader, unit.routine_handles, ctx.views, self.options,
            )
            result.mark_plan_replayed()
            result.phase_seconds["scalar.replay"] = clock() - start
        worklist = result.scalar_worklist()
        codegen_seconds = 0.0

        def timed(routine, view):
            nonlocal codegen_seconds
            tick = clock()
            machine = codegen(routine, view)
            codegen_seconds += clock() - tick
            return machine

        machines = run_ltrans(
            loader, unit.routine_handles,
            worklist if codegen is None else result.compiled_routines(),
            set(worklist), ctx, codegen and timed, unit.release_spent,
        )
        loader.accountant.mark("optimized")

        result.peak_bytes = loader.accountant.peak
        result.phase_seconds["scalar"] = clock() - start - codegen_seconds
        result.record_pass_stats()
        if codegen is None:
            unit.materialize(result.program)
        return machines

    # -- Helpers ---------------------------------------------------------------------

    def _initial_view(self, routine: Routine) -> ProfileView:
        if self.profile_db is not None:
            profile = correlate(self.profile_db, routine)
            if profile is not None and profile.block_counts:
                return ProfileView.from_profile(profile)
        return ProfileView.static_estimate(routine)
