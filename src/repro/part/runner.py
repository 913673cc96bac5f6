"""The partition runner: the link side of the LTRANS half.

One runner serves every way a partition can execute.  It pulls each
partition's pools out of the link loader, publishes them (and the
shared context) through a *transport*, hands the transport the job
descriptors, and folds the outcomes back.  A transport is any object
with

* ``put_blob(data) -> key`` -- publish bytes, returning their content
  hash;
* ``dispatch(jobs) -> outcomes`` -- run the job descriptors through
  :func:`~repro.part.wire.run_wire_job` somewhere and return one
  outcome payload per job, in any order.

The two transports that run jobs elsewhere share one dispatch,
:func:`queue_jobs`: each job becomes a task weighted by its partition,
and a :class:`~repro.sched.tasks.TaskQueue` hands the heaviest to
whichever worker asks next.

Three exist: :class:`InProcessTransport` below (the link process
itself, one job after another), :class:`~repro.part.procexec.
ProcessTransport` (local worker processes over a shared-memory blob)
and the farm's :class:`~repro.farm.coordinator.FarmDispatcher`.  All
three execute the same function on the same bytes, and that function
runs the LTRANS body the serial link runs
(:func:`~repro.hlo.driver.run_ltrans`), so they agree by construction.

Determinism: the scalar passes only mutate their own routine (plus the
per-routine view and pass counters), and LLO compiles one routine at a
time from that routine and its view alone, so splitting the routines
into partitions does not change any routine's machine code.  Outcomes
carry machine routines keyed by name; the caller splices them in
canonical unit order, and all stats (loader, accountant, pass counters,
LLO) are folded back in partition index order -- so every observable
number is independent of which worker finished first, and the image is
byte-identical to the serial build.

Ownership transfer: the runner releases each local pool from the link
loader *before* dispatch (offloaded pools stay fetchable in the shared
repository).  Nothing comes back but machine code and statistics: a
compiled body is spent, so after a partitioned run -- as after a
serial one -- ``HloResult.unit`` lists names and holds no bodies.
"""

from __future__ import annotations

import contextlib
import hashlib
from typing import Callable, Dict, List, Optional

from ..hlo.driver import HloResult
from ..llo.driver import LloOptions, LloStats
from ..naim.compaction import compact_routine
from ..naim.config import NaimConfig
from ..naim.pools import KIND_IR, PoolState
from ..sched.events import EventLog
from ..vm.image import MachineRoutine
from .partition import Partition
from .wire import (
    ContextCache,
    PartitionOutcome,
    decode_outcome,
    encode_shared_context,
    run_wire_job,
)


class RemoteDispatchError(Exception):
    """The transport returned no outcome for a partition."""


def _span(events: Optional[EventLog], name: str, category: str):
    if events is None:
        return contextlib.nullcontext()
    return events.span(name, category=category)


def queue_jobs(jobs: List[Dict], run_batch, prefix: str = "ltrans:",
               payload: Callable[[Dict], object] = lambda job: job) -> List:
    """Run partition jobs as ``<prefix>p<index>`` tasks weighted by
    their partition through ``run_batch(tasks) -> {task_id: result}``
    (a process pool's or the farm queue's); returns the results.  The
    runner folds them by index, so their order does not matter."""
    return list(run_batch([
        ("%sp%d" % (prefix, job["index"]), payload(job),
         max(1, int(job.get("weight", 1))))
        for job in jobs
    ]).values())


class InProcessTransport:
    """Jobs run one after another in the calling process.

    What ``auto`` resolves to when worker processes cannot help (one
    effective worker) or cannot run (no multiprocessing).  The store is
    a dict; each job gets its own ``ltrans`` span, like a pool task."""

    def __init__(self, events: Optional[EventLog] = None) -> None:
        self.events = events
        self.blobs: Dict[str, bytes] = {}
        self._contexts = ContextCache()

    def put_blob(self, data: bytes) -> str:
        key = hashlib.sha256(data).hexdigest()
        self.blobs.setdefault(key, data)
        return key

    def get_blob(self, key: str) -> bytes:
        return self.blobs[key]

    def get_blobs(self, keys) -> Dict[str, bytes]:
        return {key: self.blobs[key] for key in keys}

    def dispatch(self, jobs: List[Dict]) -> List[Dict]:
        outcomes = []
        for job in jobs:
            with _span(self.events, "ltrans:p%d" % job["index"], "ltrans"):
                outcomes.append(run_wire_job(job, self, self._contexts))
        return outcomes


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
    """Runs partitions of the post-WPA unit over a transport."""

    def __init__(
        self,
        hlo_result: HloResult,
        llo_options: LloOptions,
        naim_config: Optional[NaimConfig] = None,
        events: Optional[EventLog] = None,
        transport=None,
    ) -> None:
        self.hlo_result = hlo_result
        self.llo_options = llo_options
        self.naim_config = naim_config or NaimConfig()
        self.events = events
        self.transport = transport or InProcessTransport(events)
        #: Routines the scalar pipeline must visit (selectivity and
        #: incremental reuse already applied); everything else in a
        #: partition is codegen-only.
        self.scalar_set = frozenset(hlo_result.scalar_worklist())
        #: routine name -> blob key of its compact IR, for one ``run``:
        #: a body k partitions import (and one owns) is compacted,
        #: hashed and published once, not k + 1 times.
        self._blob_keys: Dict[str, str] = {}

    def run(self, partitions: List[Partition]) -> PartitionRunResult:
        result = PartitionRunResult()
        result.partitions = partitions
        if not partitions:
            return result

        # Imports are copied out before locals are *released*: a body
        # one partition imports is usually another partition's local.
        self._blob_keys = {}
        import_entries = [
            [self._ship(name, release=False) for name in partition.imports]
            for partition in partitions
        ]
        jobs: List[Dict] = []
        for partition, imports in zip(partitions, import_entries):
            job = {
                "index": partition.index,
                "weight": partition.weight,
                "routines": [
                    self._ship(name, release=True)
                    for name in partition.routines
                ],
            }
            if imports:
                job["imports"] = imports
            jobs.append(job)

        # Encode the shared context only after every routine has been
        # compacted: compaction interns symbols on demand, and the
        # workers rebuild the symtab from the shipped PID order, so the
        # snapshot must come last to cover every reference in the
        # compact IR.
        context_key = self.transport.put_blob(encode_shared_context(
            self.hlo_result, self.llo_options, self.naim_config,
            self.scalar_set,
        ))
        for job in jobs:
            job["ctx"] = context_key

        with _span(self.events, "ltrans-dispatch", "dispatch"):
            outcomes = self.transport.dispatch(jobs)

        # Fold in partition index order, so stats and accounting are
        # deterministic regardless of which worker finished first.
        by_index = {
            payload.get("index"): payload
            for payload in outcomes if isinstance(payload, dict)
        }
        for partition in partitions:
            payload = by_index.get(partition.index)
            if payload is None:
                raise RemoteDispatchError(
                    "no outcome for partition %d" % partition.index
                )
            self._fold(result, decode_outcome(partition, payload))
        # Workers replayed their plan slices: phase 5 must not replay
        # again.  Their peaks are folded in, so the link's peak is the
        # HLO peak, as the serial phase 5 reports it.
        self.hlo_result.mark_plan_replayed()
        self.hlo_result.record_pass_stats()
        self.hlo_result.peak_bytes = self.hlo_result.accountant.peak
        return result

    def _ship(self, name: str, release: bool) -> Dict:
        """Publish one routine's compact IR; returns its job entry.

        Locals (``release``) leave the link loader; imports are
        read-only callee bodies for the worker's plan replay and stay
        owned by it (several partitions may import the same routine).
        Everything travels as compact bytes -- the codec round-trip
        gives every worker a private expanded copy.  A WPA clone has
        no body yet (the worker's replay creates it): its entry
        carries no ``"pool"``.
        """
        loader = self.hlo_result.loader
        handle = self.hlo_result.unit.handle(name)
        key = self._blob_keys.get(name)
        if key is None and handle is not None:
            pool = handle.pool
            data = None
            if pool.state is PoolState.COMPACT:
                data = pool.compact_bytes
            elif pool.state is PoolState.OFFLOADED:
                data = loader.repository.fetch(KIND_IR, name)
            elif pool.expanded is not None:
                data = compact_routine(
                    pool.expanded, self.hlo_result.ctx.symtab
                )
            if data is not None:
                key = self._blob_keys[name] = self.transport.put_blob(data)
        if key is None:
            return {"name": name}
        if release:
            loader.release(handle)
        return {"name": name, "pool": key}

    def _fold(self, result: PartitionRunResult,
              outcome: PartitionOutcome) -> None:
        hlo_result = self.hlo_result
        loader = hlo_result.loader

        result.machines.update(outcome.machines)
        result.llo_stats.merge(outcome.llo_stats)
        loader.stats.merge(outcome.loader_stats)
        loader.accountant.merge(outcome.accountant)
        hlo_result.ctx.stats.merge(outcome.pass_stats)
        hlo_result.ctx.views.update(outcome.views)
