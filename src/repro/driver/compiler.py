"""The compiler driver: frontend -> objects -> link -> executable.

Mirrors the HP-UX pipeline (paper Figure 2): frontends emit IL; at
+O0/+O1/+O2 modules go straight through LLO into code objects; at +O4
the frontend dumps IL into fat objects and the *linker* routes them
through HLO (with NAIM and selectivity) before code generation and
final layout.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from ..frontend import compile_source, detect_language
from ..hlo.driver import HighLevelOptimizer, HloResult
from ..hlo.profile_view import ProfileView
from ..ir.module import Module
from ..ir.program import ENTRY_NAME, Program
from ..ir.routine import Routine
from ..ir.symbols import GlobalVar
from ..linker.clustering import cluster_routines
from ..linker.link import build_image, check_interfaces
from ..linker.objects import KIND_IL, LinkError, ObjectFile
from ..llo.driver import LloOptions, LloStats, LowLevelOptimizer
from ..naim.memory import MemoryAccountant
from ..naim.repository import Repository
from ..sched.events import EventLog
from ..profiles.correlate import correlate
from ..profiles.database import ProfileDatabase
from ..profiles.probes import ProbeTable, instrument_program
from ..vm.image import Executable, MachineRoutine
from ..vm.machine import MachineResult, run_image
from .options import CompilerOptions
from .selectivity import SelectivityPlan, plan_selectivity

Sources = Union[Dict[str, str], Sequence[Module]]


class BuildTimings:
    """Wall-clock seconds per build phase."""

    def __init__(self) -> None:
        self.phases: Dict[str, float] = {}

    def add(self, phase: str, seconds: float) -> None:
        self.phases[phase] = self.phases.get(phase, 0.0) + seconds

    def total(self) -> float:
        return sum(self.phases.values())

    def __repr__(self) -> str:
        inner = ", ".join(
            "%s=%.3fs" % (name, secs) for name, secs in self.phases.items()
        )
        return "<BuildTimings %s>" % inner


class _Timer:
    def __init__(self, timings: BuildTimings, phase: str) -> None:
        self.timings = timings
        self.phase = phase

    def __enter__(self) -> "_Timer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        self.timings.add(self.phase, time.perf_counter() - self.start)


def _forward_hlo_events(events: Optional[EventLog], hlo_events,
                        category: str) -> None:
    """Put the HLO's structured events on the build's event log."""
    if events is None:
        return
    for event in hlo_events:
        events.instant(
            str(event.get("event", "hlo")), category=category,
            args=dict(event),
        )


class BuildResult:
    """Everything a build produces."""

    def __init__(self) -> None:
        self.executable: Optional[Executable] = None
        self.objects: List[ObjectFile] = []
        self.probe_table: Optional[ProbeTable] = None
        self.hlo_result: Optional[HloResult] = None
        self.llo_stats: Optional[LloStats] = None
        self.accountant = MemoryAccountant()
        self.timings = BuildTimings()
        self.plan: Optional[SelectivityPlan] = None
        self.interface_problems: List[str] = []
        self.source_lines = 0
        self.options_used = ""
        #: Incremental-CMO outcome (an :class:`repro.incr.IncrLinkReport`)
        #: when the link ran with an IncrementalState; None otherwise.
        self.incr_report = None
        #: CMO modules whose codegen came from the incremental cache.
        self.cmo_reused_modules: List[str] = []
        #: CMO modules re-optimized (scalar pipeline + LLO) this link.
        self.cmo_reoptimized_modules: List[str] = []
        #: Partitioned-LTRANS execution facts (backend, effective
        #: worker count, spawn cost, blob size) when the link ran the
        #: partitioned backend; None otherwise.  Purely observational
        #: -- image bytes are identical across backends.
        self.ltrans_stats: Optional[Dict[str, object]] = None

    def merge_codegen(self, accountant: Optional[MemoryAccountant],
                      llo_stats: Optional[LloStats]) -> None:
        """Fold one module's separate-compilation accounting in.

        Both builders call this once per module in source order, so
        the merged peaks and counters do not depend on the builder.
        """
        if accountant is not None:
            self.accountant.merge(accountant)
        if llo_stats is not None:
            if self.llo_stats is None:
                self.llo_stats = llo_stats
            else:
                self.llo_stats.merge(llo_stats)

    def run(self, inputs=None, cost_model=None,
            max_instructions: int = 200_000_000) -> MachineResult:
        """Execute the built image on the VM."""
        assert self.executable is not None
        return run_image(self.executable, inputs, cost_model,
                         max_instructions=max_instructions)

    def __repr__(self) -> str:
        code = self.executable.code_size() if self.executable else 0
        return "<BuildResult %s (%d instrs, %.2fs)>" % (
            self.options_used,
            code,
            self.timings.total(),
        )


class Compiler:
    """One configured compiler instance."""

    def __init__(self, options: Optional[CompilerOptions] = None) -> None:
        self.options = options or CompilerOptions()
        #: When set (by the farm coordinator), partitioned LTRANS runs
        #: use this object as the runner's transport (``put_blob`` /
        #: ``dispatch``) whenever its ``ready()`` says it has workers;
        #: otherwise partitions execute locally, so a farm with zero
        #: workers still serves builds.
        self.partition_dispatcher = None
        #: When set (by the coordinator's warm state), the process LTRANS
        #: backend runs its partition batches on this persistent
        #: :class:`~repro.sched.procpool.ProcessWorkerPool` instead of
        #: spawning an ephemeral pool per build.
        self.process_pool = None

    # -- Frontend --------------------------------------------------------------

    def frontend(self, name: str, source: str,
                 language: str = "auto") -> Module:
        """Compile one source file to an IL module.

        ``language``: "mll", "mfl" or "auto" (detected from the text).
        """
        if language == "auto":
            language = detect_language(source)
        return compile_source(source, name, language)

    # -- Separate compilation ------------------------------------------------------

    def compile_object(
        self,
        module: Module,
        profile_db: Optional[ProfileDatabase] = None,
        fingerprint: str = "",
    ) -> ObjectFile:
        """Compile one module to an object file (the `cc -c` step)."""
        obj, _stats = self.compile_object_with_stats(
            module, profile_db, fingerprint=fingerprint
        )
        return obj

    def compile_object_with_stats(
        self,
        module: Module,
        profile_db: Optional[ProfileDatabase] = None,
        fingerprint: str = "",
        accountant: Optional[MemoryAccountant] = None,
    ):
        """:meth:`compile_object`, also returning the codegen stats.

        The builders compile each module with a private
        ``accountant`` and fold it in with
        :meth:`BuildResult.merge_codegen`.
        """
        if self.options.is_cmo:
            # Fat object: IL dumped directly (paper §3).
            return ObjectFile.from_il_module(module, fingerprint), None
        machines, stats = self._codegen_module(module, profile_db, accountant)
        obj = ObjectFile.from_machine_routines(
            module,
            machines,
            source_fingerprint=fingerprint,
            opt_summary=self.options.describe(),
        )
        return obj, stats

    def _codegen_module(
        self,
        module: Module,
        profile_db: Optional[ProfileDatabase],
        accountant: Optional[MemoryAccountant],
    ):
        llo = LowLevelOptimizer(
            LloOptions(
                self.options.llo_level,
                use_profile=self.options.pbo and profile_db is not None,
            ),
            accountant,
        )
        machines = []
        for routine in module.routine_list():
            machines.append(
                llo.compile_routine(routine, self._view_for(routine, profile_db))
            )
        return machines, llo.stats

    def _view_for(
        self, routine: Routine, profile_db: Optional[ProfileDatabase]
    ) -> Optional[ProfileView]:
        if not self.options.pbo or profile_db is None:
            return None
        profile = correlate(profile_db, routine)
        if profile is None or not profile.block_counts:
            return None
        return ProfileView.from_profile(profile)

    # -- Whole builds --------------------------------------------------------------

    def build(
        self,
        sources: Sources,
        profile_db: Optional[ProfileDatabase] = None,
        events: Optional[EventLog] = None,
    ) -> BuildResult:
        """Frontend + compile + link in one call.

        Every frontend runs in source order, then every module's
        object, then the link; the first failure is raised as is.
        ``events`` collects a span per step, exportable as a Chrome
        trace.
        """
        result = BuildResult()
        result.options_used = self.options.describe()
        if events is None:
            events = EventLog()
        if isinstance(sources, dict):
            named = list(sources.items())
        else:
            named = [(module.name, module) for module in sources]

        modules: List[Module] = []
        with _Timer(result.timings, "frontend"):
            for name, source in named:
                with events.span("frontend:%s" % name, "frontend"):
                    if not isinstance(source, Module):
                        source = self.frontend(name, source)
                modules.append(source)
        result.source_lines = sum(m.source_lines for m in modules)

        if self.options.instrument:
            self._build_instrumented(modules, result)
            return result

        with _Timer(result.timings, "compile"):
            for module in modules:
                with events.span("compile:%s" % module.name, "compile"):
                    accountant = MemoryAccountant()
                    obj, stats = self.compile_object_with_stats(
                        module, profile_db,
                        fingerprint=ObjectFile.fingerprint(module.name),
                        accountant=accountant,
                    )
                result.objects.append(obj)
                result.merge_codegen(accountant, stats)
        with events.span("link", "link"):
            self.link_into(result.objects, profile_db, result, events=events)
        return result

    def link(
        self,
        objects: List[ObjectFile],
        profile_db: Optional[ProfileDatabase] = None,
        incr_state=None,
        events: Optional[EventLog] = None,
    ) -> BuildResult:
        """Link previously compiled objects (the `ld` step).

        ``incr_state`` (an :class:`repro.incr.IncrementalState`)
        enables summary-based incremental CMO: modules whose consumed
        cross-module facts are unchanged reuse cached codegen, with
        byte-identical output.
        """
        result = BuildResult()
        result.options_used = self.options.describe()
        result.objects = list(objects)
        result.source_lines = sum(o.source_lines for o in objects)
        self.link_into(objects, profile_db, result, incr_state=incr_state,
                       events=events)
        return result

    # -- The link pipeline -------------------------------------------------------------

    def link_into(
        self,
        objects: List[ObjectFile],
        profile_db: Optional[ProfileDatabase],
        result: BuildResult,
        incr_state=None,
        events: Optional[EventLog] = None,
    ) -> None:
        options = self.options
        accountant = result.accountant
        use_db = profile_db if options.pbo else None

        il_objects = [o for o in objects if o.kind == KIND_IL]
        code_objects = [o for o in objects if o.kind != KIND_IL]

        machine_routines: List[MachineRoutine] = []
        for obj in code_objects:
            machine_routines.extend(obj.machine_routines)
        global_vars: List[GlobalVar] = []
        for obj in objects:
            global_vars.extend(var.copy() for var in obj.defined_globals())

        if il_objects:
            if options.hlo.checked:
                for obj in il_objects:
                    obj.summary()  # hashed before anything can edit it
            # Objects must survive relinking unchanged, and the engine
            # hashes each once: the link restructures views and borrows
            # the bodies, which HLO privatises where it edits them.
            # Derived data an earlier link left on a body is dropped, so
            # what a pool is modeled to hold does not depend on history;
            # the body is unchanged, so its remembered size stays valid.
            il_modules = [obj.il_module.view() for obj in il_objects]
            for module in il_modules:
                for routine in module.routines.values():
                    routine.derived.drop()

            with _Timer(result.timings, "interface_check"):
                result.interface_problems = check_interfaces(
                    il_objects, options.hlo.checked
                )
                if result.interface_problems and options.checked:
                    raise LinkError(
                        "interface mismatches: %s"
                        % "; ".join(result.interface_problems[:5])
                    )

            with _Timer(result.timings, "selectivity"):
                result.plan = plan_selectivity(
                    options.selectivity_percent if use_db else None,
                    il_modules,
                    use_db,
                    multi_layer=options.multi_layer,
                )
            if not options.is_cmo:
                cmo_set = set()
            elif options.cmo_modules is not None:
                cmo_set = {m.name for m in il_modules} & options.cmo_modules
            else:
                cmo_set = set(result.plan.cmo_modules)
            cmo_modules = [m for m in il_modules if m.name in cmo_set]
            plain_modules = [m for m in il_modules if m.name not in cmo_set]

            if options.is_cmo and cmo_modules:
                machine_routines.extend(
                    self._link_time_cmo(
                        cmo_modules,
                        plain_modules,
                        code_objects,
                        use_db,
                        result,
                        cmo_objects=[
                            o for o in il_objects if o.module_name in cmo_set
                        ],
                        incr_state=incr_state,
                        events=events,
                    )
                )

            # Non-CMO IL modules: default optimization (+O2) with PBO;
            # in multi-layer mode, never-executed modules drop to +O1
            # (paper §8: "code that is executed little or not at all may
            # not be optimized at all").
            with _Timer(result.timings, "codegen_plain"):
                default_level = 2 if options.is_cmo else options.llo_level
                llo_by_level = {}

                def llo_for(level: int) -> LowLevelOptimizer:
                    if level not in llo_by_level:
                        llo_by_level[level] = LowLevelOptimizer(
                            LloOptions(level, use_profile=use_db is not None),
                            accountant,
                        )
                    return llo_by_level[level]

                layer_of = result.plan.layer_of if result.plan else {}
                for module in plain_modules:
                    level = default_level
                    if options.multi_layer and (
                        layer_of.get(module.name) == "cold"
                    ):
                        level = 1
                    llo = llo_for(level)
                    for routine in module.routine_list():
                        machine_routines.append(
                            llo.compile_routine(
                                routine, self._view_for(routine, use_db)
                            )
                        )
                for llo in llo_by_level.values():
                    if result.llo_stats is None:
                        result.llo_stats = llo.stats
                    else:
                        result.llo_stats.merge(llo.stats)

        # Drop globals defined by routines that no longer exist?  No:
        # globals live independently of routine liveness.

        with _Timer(result.timings, "layout"):
            layout_order = None
            if use_db is not None:
                weights: Dict[tuple, int] = {}
                for name, profile in use_db.routines.items():
                    for (block, idx, callee), count in (
                        profile.call_counts.items()
                    ):
                        key = (name, callee)
                        weights[key] = weights.get(key, 0) + count
                layout_order = cluster_routines(
                    [routine.name for routine in machine_routines],
                    weights,
                    entry=ENTRY_NAME,
                )

        with _Timer(result.timings, "link"):
            result.executable = build_image(
                machine_routines,
                global_vars,
                layout_order=layout_order,
                probe_table=result.probe_table,
                checked=options.hlo.checked,
            )
        if options.hlo.checked:
            for obj in il_objects:
                obj.summary(checked=True)

    def _link_time_cmo(
        self,
        cmo_modules: List[Module],
        plain_modules: List[Module],
        code_objects: List[ObjectFile],
        profile_db: Optional[ProfileDatabase],
        result: BuildResult,
        cmo_objects: List[ObjectFile],
        incr_state=None,
        events: Optional[EventLog] = None,
    ) -> List[MachineRoutine]:
        """Route the CMO module set through HLO, then LLO each routine.

        ``cmo_modules`` are per-link views of ``cmo_objects``' IL (own
        structure, borrowed bodies).  With
        ``incr_state``, the objects' module summaries (hashed once per
        object, not per link) are compared before HLO, consumption is
        recorded during it, and codegen splices cached machine routines
        (in unit order, so layout is unchanged) for every module whose
        reuse key hit.

        With ``hlo_jobs > 1`` (or an explicit ``hlo_partitions``), the
        scalar pipeline + codegen run on the partitioned LTRANS
        backend (:mod:`repro.part`); the serial WPA phases and the
        splice order are unchanged, so output bytes are identical.
        Either way a routine is optimized, compiled and its pool
        retired in one visit (``CmoUnit.release_spent``): where NAIM is
        engaged, the unit lists names and holds no bodies when this
        returns.
        """
        options = self.options
        accountant = result.accountant
        partitioned = options.use_partitioned_hlo

        incr_session = None
        if incr_state is not None:
            from ..incr.summary import options_fingerprint

            with _Timer(result.timings, "incr_summaries"):
                incr_session = incr_state.begin_link(
                    [obj.summary() for obj in cmo_objects],
                    options_fingerprint(options),
                    checked=options.hlo.checked,
                )

        externally_callable: Set[str] = set()
        externally_visible_globals: Set[str] = set()
        for obj in code_objects:
            externally_callable.update(obj.referenced_routines)
            for machine in obj.machine_routines:
                for instr in machine.instrs:
                    if instr.sym is not None and instr.op.value in (
                        "ldg", "stg", "ldx", "stx"
                    ):
                        externally_visible_globals.add(instr.sym)
        for module in plain_modules:
            for routine in module.routine_list():
                externally_callable.update(routine.callees())
                externally_visible_globals.update(
                    routine.referenced_globals()
                )

        cmo_program = Program(cmo_modules)
        repository = None
        if options.repository_dir is not None:
            repository = Repository(directory=options.repository_dir)
        with _Timer(result.timings, "hlo"):
            hlo = HighLevelOptimizer(
                cmo_program,
                options=options.hlo,
                profile_db=profile_db,
                naim_config=options.naim,
                repository=repository,
                accountant=accountant,
                externally_callable=externally_callable,
                externally_visible_globals=externally_visible_globals,
                incr_session=incr_session,
            )
            selected: Optional[Set[str]] = None
            if result.plan is not None and (
                options.selectivity_percent is not None
                and profile_db is not None
            ):
                selected = result.plan.selected_routines
            hlo_result = hlo.optimize(
                selected_routines=selected, run_scalar=False
            )
        result.hlo_result = hlo_result
        wpa_events = len(hlo_result.events)
        _forward_hlo_events(events, hlo_result.events, "wpa")

        llo_options = LloOptions(2, use_profile=profile_db is not None)
        compiled: Dict[str, MachineRoutine] = {}
        if not partitioned:
            # The LTRANS body in the link process, its seconds split
            # between the two phases it interleaves.
            llo = LowLevelOptimizer(llo_options, accountant)
            start = time.perf_counter()
            compiled = hlo.run_scalar_phase(
                hlo_result, codegen=llo.compile_routine
            )
            elapsed = time.perf_counter() - start
            scalar_seconds = hlo_result.phase_seconds["scalar"]
            result.timings.add("hlo", scalar_seconds)
            result.timings.add("codegen_cmo", elapsed - scalar_seconds)
            result.llo_stats = llo.stats
        with _Timer(result.timings, "codegen_cmo"):
            unit = hlo_result.unit
            cached = (
                incr_session.cached_machines if incr_session is not None
                else {}
            )
            if partitioned:
                from ..part import PartitionRunner, partition_unit
                from ..part.procexec import (
                    ProcessTransport,
                    processes_supported,
                )
                from ..sched.procpool import cpu_count

                n_partitions = options.hlo_partitions or max(
                    1, options.hlo_jobs * 4
                )
                partitions = partition_unit(hlo_result, n_partitions)
                # Workers beyond the partition count (or the
                # schedulable CPUs) only add dispatch overhead -- the
                # old 4-jobs-on-4-partitions regression.  Clamp, and
                # say so once per build in the event log.
                requested_jobs = options.hlo_jobs
                cpus = cpu_count()
                effective_jobs = max(
                    1, min(requested_jobs, len(partitions) or 1, cpus)
                )
                if effective_jobs < requested_jobs and events is not None:
                    events.instant(
                        "hlo-jobs-clamped", category="ltrans",
                        args={
                            "requested": requested_jobs,
                            "effective": effective_jobs,
                            "partitions": len(partitions),
                            "cpus": cpus,
                        },
                    )
                # "auto" asks for processes when they can help.
                wants_processes = (
                    options.hlo_backend == "processes"
                    or effective_jobs > 1
                )
                transport = self.partition_dispatcher
                if transport is not None and transport.ready():
                    # Farm workers are remote: their count is the
                    # coordinator's business, not effective_jobs'.
                    backend = "farm"
                elif wants_processes and processes_supported():
                    backend = "processes"
                    transport = ProcessTransport(
                        jobs=effective_jobs,
                        events=events,
                        pool=self.process_pool,
                    )
                else:
                    backend = "in-process"
                    transport = None
                    if (options.hlo_backend == "processes"
                            and events is not None):
                        events.instant(
                            "ltrans-backend-fallback", category="ltrans",
                            args={
                                "requested": options.hlo_backend,
                                "effective": backend,
                                "reason": "no worker-process support "
                                          "on this platform",
                            },
                        )
                run_out = PartitionRunner(
                    hlo_result,
                    llo_options,
                    naim_config=options.naim,
                    events=events,
                    transport=transport,
                ).run(partitions)
                compiled = run_out.machines
                result.llo_stats = run_out.llo_stats
                result.ltrans_stats = {
                    "backend": backend,
                    "requested_jobs": requested_jobs,
                    "effective_jobs": effective_jobs,
                    "partitions": len(partitions),
                }
                if backend == "processes":
                    result.ltrans_stats.update(transport.stats())
            # What the scalar phase added, serial or partitioned.
            _forward_hlo_events(
                events, hlo_result.events[wpa_events:], "scalar"
            )

            machines: List[MachineRoutine] = []
            fresh_by_module: Dict[str, List[MachineRoutine]] = {}
            # One pass in unit order: cached and fresh routines splice
            # into the same positions a clean build would give them, so
            # layout (and hence the image bytes) is unaffected by reuse
            # and by partitioning.
            for name in unit.routine_names():
                module_name = unit.routine_module.get(name, "")
                if module_name in cached:
                    machine = cached[module_name].get(name)
                    if machine is not None:
                        machines.append(machine)
                    handle = unit.handle(name)
                    if handle is not None:  # an unreplayed clone has none
                        unit.release_spent(handle)
                    continue
                machine = compiled.get(name)
                if machine is None:
                    continue
                machines.append(machine)
                fresh_by_module.setdefault(module_name, []).append(machine)

        if incr_session is not None:
            incr_session.fresh_machines = fresh_by_module
            result.incr_report = incr_state.commit(incr_session)
            result.cmo_reused_modules = result.incr_report.reused
            result.cmo_reoptimized_modules = result.incr_report.reoptimized
        return machines

    # -- Instrumented builds (+I) -----------------------------------------------------

    def _build_instrumented(
        self, modules: List[Module], result: BuildResult
    ) -> None:
        with _Timer(result.timings, "instrument"):
            program = Program(modules)
            result.probe_table = instrument_program(program)
        with _Timer(result.timings, "compile"):
            machines: List[MachineRoutine] = []
            llo = LowLevelOptimizer(
                LloOptions(self.options.llo_level, use_profile=False),
                result.accountant,
            )
            for module in modules:
                for routine in module.routine_list():
                    machines.append(llo.compile_routine(routine))
            result.llo_stats = llo.stats
        global_vars: List[GlobalVar] = []
        for module in modules:
            global_vars.extend(module.symtab.globals.values())
        with _Timer(result.timings, "link"):
            result.executable = build_image(
                machines, global_vars, probe_table=result.probe_table
            )


# -- Sessions (warm-state builds) ----------------------------------------------------


class SessionBuildStats:
    """Per-build observability for one :class:`CompileSession` build.

    Everything here is scoped to exactly one build even when the
    session (and its caches, repositories and event log) is warm and
    has served many earlier builds in the same process.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        #: Shared artifact-cache activity during this build (delta).
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_stores = 0
        #: Incremental-repository traffic during this build.
        self.repo_fetches = 0
        self.repo_stores = 0
        self.repo_bytes_read = 0
        self.repo_bytes_written = 0
        #: Dead pack-segment bytes awaiting compaction at build end.
        self.repo_reclaimable_bytes = 0
        #: NAIM loader activity of the link (evictions = compactions).
        self.loader_evictions = 0
        self.loader_offloads = 0
        self.loader_cache_hits = 0
        #: Modeled peak memory of the build.
        self.peak_bytes = 0
        #: Task spans recorded in the session event log.
        self.n_spans = 0
        #: Wall-clock seconds per build phase.
        self.phase_seconds: Dict[str, float] = {}
        #: How many builds this session had served before this one.
        self.warm_builds_before = 0

    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "seconds": self.seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_stores": self.cache_stores,
            "cache_hit_rate": self.cache_hit_rate(),
            "repo_fetches": self.repo_fetches,
            "repo_stores": self.repo_stores,
            "repo_bytes_read": self.repo_bytes_read,
            "repo_bytes_written": self.repo_bytes_written,
            "repo_reclaimable_bytes": self.repo_reclaimable_bytes,
            "loader_evictions": self.loader_evictions,
            "loader_offloads": self.loader_offloads,
            "loader_cache_hits": self.loader_cache_hits,
            "peak_bytes": self.peak_bytes,
            "n_spans": self.n_spans,
            "phase_seconds": dict(self.phase_seconds),
            "warm_builds_before": self.warm_builds_before,
        }

    def __repr__(self) -> str:
        return "<SessionBuildStats %.3fs cache %d/%d warm=%d>" % (
            self.seconds, self.cache_hits,
            self.cache_hits + self.cache_misses, self.warm_builds_before,
        )


class CompileSession:
    """A reusable, process-resident build entry point.

    One session pins down everything that makes two builds comparable
    -- the :class:`CompilerOptions` and (for
    incremental builds) the :class:`~repro.driver.build.BuildEngine`
    with its object cache and :class:`~repro.incr.IncrementalState`.
    The cold CLI creates a throwaway session per invocation; the build
    coordinator keeps sessions warm across requests and projects.  Both
    go through :meth:`build`, which is how coordinator builds stay
    byte-identical to cold CLI builds at every ``hlo_jobs`` /
    ``incremental`` setting.

    ``warm=True`` routes even non-incremental builds through a
    :class:`BuildEngine`, so repeat builds reuse fingerprint-matched
    objects and the shared ``artifact_cache`` instead of re-running
    frontends (output bytes are identical either way -- objects are
    content-addressed).

    Every build starts by resetting per-build mutable counters on the
    session's long-lived state (event log, incremental repository), so
    stats never leak between builds sharing one process; shared
    artifact-cache counters are reported as before/after deltas
    because other sessions may be using the cache concurrently.

    Builds on one session are serialized by an internal lock --
    concurrent coordinator requests against the same project queue here
    rather than corrupting shared engine state.
    """

    def __init__(
        self,
        options: Optional[CompilerOptions] = None,
        incremental: bool = False,
        state_dir: Optional[str] = None,
        artifact_cache=None,
        warm: bool = False,
    ) -> None:
        self.options = options or CompilerOptions()
        self.incremental = bool(incremental or state_dir is not None)
        self.state_dir = state_dir
        self.artifact_cache = artifact_cache
        self.warm = warm
        self.events = EventLog()
        #: Builds completed on this session (warm-state reuse count).
        self.builds = 0
        self._lock = threading.Lock()
        self.engine = None
        self.compiler = Compiler(self.options)
        if self.incremental or warm:
            from .build import BuildEngine  # local: build.py imports us

            self.engine = BuildEngine(
                self.options,
                artifact_cache=artifact_cache,
                events=self.events,
                incremental=self.incremental,
                state_dir=state_dir,
            )
            self.compiler = self.engine.compiler

    @classmethod
    def from_config(cls, config, **kwargs) -> "CompileSession":
        """The session a :class:`~.options.BuildConfig` asks for -- the
        one constructor behind the cold CLI and the coordinator."""
        return cls(config.compiler_options(),
                   incremental=config.incremental,
                   state_dir=config.state_dir, **kwargs)

    # -- Per-build hygiene -----------------------------------------------------------

    def reset_build_counters(self) -> None:
        """Zero every per-build mutable counter on session-owned state."""
        self.events.clear()
        if self.engine is not None and self.engine.incr_state is not None:
            self.engine.incr_state.reset_counters()

    # -- Building ----------------------------------------------------------------------

    def build(self, sources: Dict[str, str],
              profile_db: Optional[ProfileDatabase] = None):
        """Run one build; returns ``(result, report, stats)``.

        ``report`` is a :class:`~repro.driver.build.RebuildReport` when
        the session runs on an engine, else None.
        """
        with self._lock:
            stats = SessionBuildStats()
            stats.warm_builds_before = self.builds
            self.reset_build_counters()
            cache_before = (
                self.artifact_cache.stats_snapshot()
                if self.artifact_cache is not None else None
            )
            start = time.perf_counter()
            if self.engine is not None:
                result, report = self.engine.build(
                    sources, profile_db=profile_db
                )
            else:
                result = self.compiler.build(
                    sources, profile_db=profile_db, events=self.events,
                )
                report = None
            stats.seconds = time.perf_counter() - start
            self.builds += 1
            self._collect_stats(stats, result, cache_before)
            return result, report, stats

    def _collect_stats(self, stats: SessionBuildStats, result: BuildResult,
                       cache_before) -> None:
        if cache_before is not None:
            delta = self.artifact_cache.stats_snapshot().delta(cache_before)
            stats.cache_hits = delta.hits
            stats.cache_misses = delta.misses
            stats.cache_stores = delta.stores
        if self.engine is not None and self.engine.incr_state is not None:
            repo = self.engine.incr_state.repository
            stats.repo_fetches = repo.fetches
            stats.repo_stores = repo.stores
            stats.repo_bytes_read = repo.bytes_read
            stats.repo_bytes_written = repo.bytes_written
            stats.repo_reclaimable_bytes = getattr(
                repo, "reclaimable_bytes", 0
            )
        if result.hlo_result is not None:
            loader_stats = result.hlo_result.loader.stats
            stats.loader_evictions = loader_stats.compactions
            stats.loader_offloads = loader_stats.offloads
            stats.loader_cache_hits = loader_stats.cache_hits
        stats.peak_bytes = result.accountant.peak
        stats.n_spans = len(self.events.spans())
        stats.phase_seconds = dict(result.timings.phases)
        if result.hlo_result is not None:
            # Per-pass WPA splits ("hlo.wpa.inline", ...) alongside the
            # coarse build phases, so the bench harnesses can attribute
            # thin-link time.
            for key, value in result.hlo_result.phase_seconds.items():
                stats.phase_seconds["hlo." + key] = value

    def compact_repositories(self) -> int:
        """Compact session-owned pack repositories; returns bytes freed.

        Cheap when nothing is reclaimable -- the coordinator calls this
        between requests so dead frames from pruned incremental blobs
        don't accumulate across a long-lived process.
        """
        if self.engine is None or self.engine.incr_state is None:
            return 0
        repository = self.engine.incr_state.repository
        compact = getattr(repository, "maybe_compact", None)
        if compact is None:
            return 0
        with self._lock:
            return compact()

    def close(self) -> None:
        """Release persistent session state (incremental repository)."""
        if self.engine is not None and self.engine.incr_state is not None:
            self.engine.incr_state.close()

    def __repr__(self) -> str:
        return "<CompileSession %s%s builds=%d>" % (
            self.options.describe(),
            " incremental" if self.incremental else "", self.builds,
        )


# -- Training convenience -----------------------------------------------------------


def train(
    sources: Sources,
    training_inputs: Iterable[Optional[Dict[str, List[int]]]],
    opt_level: int = 2,
) -> ProfileDatabase:
    """Build instrumented, run on each training input, merge profiles.

    This is the paper's +I / profile-database workflow in one call.
    """
    compiler = Compiler(CompilerOptions(opt_level=opt_level, instrument=True))
    build = compiler.build(sources)
    assert build.executable is not None and build.probe_table is not None
    database = ProfileDatabase()
    for inputs in training_inputs:
        outcome = run_image(build.executable, inputs)
        database.merge(
            ProfileDatabase.from_probe_list(
                build.probe_table, outcome.probe_counts
            )
        )
    return database
