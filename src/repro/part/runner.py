"""The partition runner: parallel scalar pipeline + LLO codegen.

Executes the LTRANS half of the WHOPR-style split.  Each partition
becomes one task on a :class:`~repro.sched.executor.Executor` worker
pool; each worker owns a private :class:`~repro.naim.loader.Loader`
and :class:`~repro.naim.memory.MemoryAccountant` over an
:class:`~repro.naim.repository.OverlayRepository` wrapping the shared
link repository, so NAIM thresholds apply per worker and worker
evictions never mutate shared state.

Determinism: the scalar passes only mutate their own routine (plus the
per-routine view and pass counters), and LLO compiles one routine at a
time from that routine and its view alone, so fusing scalar + codegen
per routine inside a partition produces exactly the machine code the
serial two-loop driver does.  Workers return machine routines keyed by
name; the caller splices them in canonical unit order, and all stats
(loader, accountant, pass counters, LLO) are folded back in partition
index order -- so every observable number is independent of worker
interleaving, and the image is byte-identical to the serial build.

Ownership transfer: the link thread extracts each pool's payload and
releases it from the link loader *before* workers start (offloaded
pools stay fetchable in the shared repository), and re-adopts the
final payloads afterwards, so ``HloResult.unit`` remains fully usable
after a parallel run.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..hlo.driver import HloResult, standard_pipeline
from ..hlo.passes import OptContext
from ..hlo.thin import replay_plan
from ..llo.driver import LloOptions, LloStats, LowLevelOptimizer
from ..naim.compaction import compact_routine
from ..naim.config import NaimConfig
from ..naim.loader import Loader
from ..naim.memory import MemoryAccountant
from ..naim.pools import KIND_IR, PoolState
from ..naim.repository import OverlayRepository
from ..sched.events import EventLog
from ..sched.executor import Executor
from ..sched.graph import TaskGraph
from ..vm.image import MachineRoutine
from .partition import Partition


class _PoolTransfer:
    """One routine's payload, moving between loaders."""

    __slots__ = ("name", "expanded", "compact_bytes", "offloaded")

    def __init__(self, name: str) -> None:
        self.name = name
        self.expanded = None
        self.compact_bytes: Optional[bytes] = None
        self.offloaded = False


class _PartitionOutcome:
    """Everything one worker hands back for deterministic folding."""

    def __init__(self, partition: Partition) -> None:
        self.partition = partition
        self.machines: Dict[str, MachineRoutine] = {}
        self.returned: List[_PoolTransfer] = []
        self.loader_stats = None
        self.accountant: Optional[MemoryAccountant] = None
        self.llo_stats: Optional[LloStats] = None
        self.pass_stats = None
        self.views: Dict[str, object] = {}


class PartitionRunResult:
    """The folded outcome of a partitioned LTRANS run."""

    def __init__(self) -> None:
        #: routine name -> compiled machine routine.
        self.machines: Dict[str, MachineRoutine] = {}
        self.llo_stats = LloStats()
        self.partitions: List[Partition] = []

    def __repr__(self) -> str:
        return "<PartitionRunResult %d routines over %d partitions>" % (
            len(self.machines), len(self.partitions)
        )


class PartitionRunner:
    """Runs partitions of the post-WPA unit on a worker pool."""

    def __init__(
        self,
        hlo_result: HloResult,
        llo_options: LloOptions,
        naim_config: Optional[NaimConfig] = None,
        jobs: int = 1,
        events: Optional[EventLog] = None,
    ) -> None:
        self.hlo_result = hlo_result
        self.llo_options = llo_options
        self.naim_config = naim_config or NaimConfig()
        self.jobs = max(1, jobs)
        self.events = events
        #: Routines the scalar pipeline must visit (selectivity and
        #: incremental reuse already applied); everything else in a
        #: partition is codegen-only.
        self.scalar_set = frozenset(hlo_result.scalar_worklist())
        #: The body-mutation plan each worker replays over its locals +
        #: imports before the scalar loop (None once the link side has
        #: already replayed it).
        self.plan = hlo_result.pending_plan

    # -- Entry point -------------------------------------------------------------

    def run(self, partitions: List[Partition]) -> PartitionRunResult:
        result = PartitionRunResult()
        result.partitions = partitions
        if not partitions:
            return result

        # Imports are copied out before locals are *released*: a body
        # one partition imports is usually another partition's local.
        import_batches = [
            self._extract_imports(partition) for partition in partitions
        ]
        transfers = [self._extract(partition) for partition in partitions]

        graph = TaskGraph()
        for partition, batch, imports in zip(
            partitions, transfers, import_batches
        ):

            def run_partition(_inputs, partition=partition, batch=batch,
                              imports=imports):
                return self._run_partition(partition, batch, imports)

            graph.add("ltrans:p%d" % partition.index, run_partition,
                      category="ltrans")
        executor = Executor(jobs=self.jobs, events=self.events)
        outcome = executor.run(graph)
        if not outcome.ok:
            outcome.raise_first()

        # Fold every worker's results back in partition index order, so
        # stats and accounting are deterministic regardless of which
        # worker finished first.
        for partition in partitions:
            self._fold(result, outcome.results["ltrans:p%d" % partition.index])
        if self.plan is not None:
            self.hlo_result.mark_plan_replayed()
        return result

    # -- Link-thread side --------------------------------------------------------

    def _extract(self, partition: Partition) -> List[_PoolTransfer]:
        """Pull partition pools out of the link loader (payload + state).

        Offloaded payloads stay behind in the shared repository; the
        worker's overlay reads them from there.
        """
        unit = self.hlo_result.unit
        loader = self.hlo_result.loader
        batch: List[_PoolTransfer] = []
        for name in partition.routines:
            handle = unit.handle(name)
            if handle is None:
                continue
            pool = handle.pool
            transfer = _PoolTransfer(name)
            if pool.state is PoolState.EXPANDED:
                if pool.expanded is None:
                    continue
                transfer.expanded = pool.expanded
            elif pool.state is PoolState.COMPACT:
                transfer.compact_bytes = pool.compact_bytes
            elif pool.state is PoolState.OFFLOADED:
                transfer.offloaded = True
            loader.release(handle)
            batch.append(transfer)
        return batch

    def _extract_imports(self, partition: Partition) -> List[_PoolTransfer]:
        """Copy the partition's import payloads without releasing them.

        Imports are read-only callee bodies for the worker's plan
        replay; the link loader keeps ownership (several partitions may
        import the same routine).  Payloads travel as compact bytes --
        the codec round-trip gives every worker a private expanded
        copy, so worker-side binding replay on an imported body never
        touches a shared object.
        """
        if not partition.imports:
            return []
        unit = self.hlo_result.unit
        symtab = self.hlo_result.ctx.symtab
        batch: List[_PoolTransfer] = []
        for name in partition.imports:
            handle = unit.handle(name)
            if handle is None:
                continue  # a clone: the worker's replay creates it
            pool = handle.pool
            transfer = _PoolTransfer(name)
            if pool.state is PoolState.EXPANDED:
                if pool.expanded is None:
                    continue
                transfer.compact_bytes = compact_routine(
                    pool.expanded, symtab
                )
            elif pool.state is PoolState.COMPACT:
                transfer.compact_bytes = pool.compact_bytes
            elif pool.state is PoolState.OFFLOADED:
                transfer.offloaded = True
            batch.append(transfer)
        return batch

    def _fold(self, result: PartitionRunResult,
              outcome: _PartitionOutcome) -> None:
        hlo_result = self.hlo_result
        unit = hlo_result.unit
        loader = hlo_result.loader

        result.machines.update(outcome.machines)
        result.llo_stats.merge(outcome.llo_stats)
        loader.stats.merge(outcome.loader_stats)
        loader.accountant.merge(outcome.accountant)
        hlo_result.ctx.stats.merge(outcome.pass_stats)
        hlo_result.ctx.views.update(outcome.views)

        # Re-adopt final pool payloads so the unit stays usable (and
        # mirrors the serial end state: optimized routines behind
        # unload-requested handles).
        for transfer in outcome.returned:
            if transfer.expanded is not None:
                handle = loader.adopt_routine(
                    transfer.name, expanded=transfer.expanded
                )
                handle.request_unload()
            elif transfer.compact_bytes is not None:
                handle = loader.adopt_routine(
                    transfer.name, compact_bytes=transfer.compact_bytes
                )
            else:
                continue
            unit.routine_handles[transfer.name] = handle

    # -- Worker side -------------------------------------------------------------

    def _run_partition(
        self, partition: Partition, batch: List[_PoolTransfer],
        imports: List[_PoolTransfer] = (),
    ) -> _PartitionOutcome:
        hlo_result = self.hlo_result
        shared_ctx = hlo_result.ctx
        worker_loader = Loader(
            self.naim_config,
            shared_ctx.symtab,
            MemoryAccountant(),
            OverlayRepository(hlo_result.loader.repository),
        )
        handles = {}
        for transfer in batch:
            handles[transfer.name] = worker_loader.adopt_routine(
                transfer.name,
                expanded=transfer.expanded,
                compact_bytes=transfer.compact_bytes,
                offloaded=transfer.offloaded,
            )
        for transfer in imports:
            handles[transfer.name] = worker_loader.adopt_routine(
                transfer.name,
                compact_bytes=transfer.compact_bytes,
                offloaded=transfer.offloaded,
            )
        # Warm offloaded pools a window ahead of the optimization loop:
        # the pipeline fetches + decodes the next routines' pools on a
        # background thread while this one is being compiled.
        depth = worker_loader.config.repo_prefetch_depth
        if depth:
            worker_loader.prefetch(
                handles[t.name] for t in batch[:depth]
            )

        # Private context: views/stats are written per routine; the
        # symbol table, mod/ref info and interprocedural facts are
        # shared read-only.
        ctx = OptContext(shared_ctx.symtab, shared_ctx.options,
                         shared_ctx.modref)
        ctx.views = dict(shared_ctx.views)
        ctx.readonly_globals = shared_ctx.readonly_globals
        ctx.const_returns = shared_ctx.const_returns

        # Materialize this partition's slice of the plan (locals
        # mutate; imports are read as splice callees and clone origins)
        # before any scalar work.
        names = [transfer.name for transfer in batch]
        if self.plan is not None:
            names = list(partition.routines)
            replay_plan(
                self.plan,
                set(partition.routines) | set(partition.imports),
                worker_loader, handles, ctx.views, ctx.options,
            )
            for transfer in imports:
                handle = handles.pop(transfer.name, None)
                if handle is not None:
                    worker_loader.release(handle)

        llo = LowLevelOptimizer(self.llo_options, worker_loader.accountant)
        pipeline = standard_pipeline()
        outcome = _PartitionOutcome(partition)

        for index, name in enumerate(names):
            if depth:
                worker_loader.prefetch(
                    handles[other]
                    for other in names[index + 1:index + 1 + depth]
                    if other in handles
                )
            handle = handles.get(name)
            if handle is None:
                continue
            routine = handle.get()
            if routine is None:
                continue
            if name in self.scalar_set:
                worker_loader.pin(handle)
                pipeline.run_routine(routine, ctx)
                worker_loader.unpin(handle)
                worker_loader.reaccount(handle)
            outcome.machines[name] = llo.compile_routine(
                routine, ctx.views.get(name)
            )
            handle.request_unload()
        worker_loader.stop_prefetch()
        worker_loader.accountant.mark("ltrans:p%d" % partition.index)

        # Package final pool payloads for re-adoption, then release so
        # the merged accountant doesn't double-count resident pools.
        for name in names:
            handle = handles.get(name)
            if handle is None:
                continue
            pool = handle.pool
            returned = _PoolTransfer(name)
            if pool.state is PoolState.EXPANDED:
                returned.expanded = pool.expanded
            elif pool.state is PoolState.COMPACT:
                returned.compact_bytes = pool.compact_bytes
            elif pool.state is PoolState.OFFLOADED:
                returned.compact_bytes = worker_loader.repository.fetch(
                    KIND_IR, name
                )
            worker_loader.release(handle)
            outcome.returned.append(returned)

        outcome.loader_stats = worker_loader.stats
        outcome.accountant = worker_loader.accountant
        outcome.llo_stats = llo.stats
        outcome.pass_stats = ctx.stats
        outcome.views = {
            name: ctx.views[name]
            for name in names
            if name in ctx.views
        }
        return outcome
