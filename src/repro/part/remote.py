"""Remote LTRANS: partitions executed by farm workers.

:class:`RemotePartitionRunner` is a drop-in for
:class:`~repro.part.runner.PartitionRunner` whose partitions run on
whatever workers the farm coordinator has connected, instead of local
threads.  It reuses the local runner's ``_extract`` (pull pools out
of the link loader before dispatch) and ``_fold`` (splice results
back in partition index order), so determinism and the post-run state
of the CMO unit are exactly the in-process runner's; only the middle
-- who executes the scalar+codegen loop -- changes.

The runner is transport-blind: it receives two callables,

* ``put_blob(data) -> key`` -- publish bytes to the shared
  content-addressed store, returning their content hash;
* ``dispatch(jobs) -> outcomes`` -- run the job descriptions on the
  farm (the coordinator backs this with its work-stealing queue) and
  return one outcome payload per job, in any order.

so it can be driven by the real coordinator or byte-for-byte verified
in-process by tests with a loopback dispatcher.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..hlo.driver import HloResult
from ..llo.driver import LloOptions
from ..naim.compaction import compact_routine
from ..naim.config import NaimConfig
from ..naim.pools import KIND_IR
from ..sched.events import EventLog
from .partition import Partition
from .runner import PartitionRunner, PartitionRunResult
from .wire import build_context_blob, decode_outcome


class RemoteDispatchError(Exception):
    """The farm could not complete a partition batch."""


class RemotePartitionRunner(PartitionRunner):
    """Partitioned LTRANS over farm workers (see module docstring)."""

    #: Name/category of the span wrapping the whole dispatch; the
    #: local process backend overrides these (its per-partition spans
    #: come from the worker pool instead of farm workers).
    DISPATCH_SPAN = "farm-dispatch"
    DISPATCH_CATEGORY = "ltrans"

    def __init__(
        self,
        hlo_result: HloResult,
        llo_options: LloOptions,
        naim_config: Optional[NaimConfig] = None,
        jobs: int = 1,
        events: Optional[EventLog] = None,
        dispatch: Optional[Callable[[List[Dict]], List[Dict]]] = None,
        put_blob: Optional[Callable[[bytes], str]] = None,
    ) -> None:
        super().__init__(hlo_result, llo_options, naim_config,
                         jobs=jobs, events=events)
        if dispatch is None or put_blob is None:
            raise ValueError("dispatch and put_blob are required")
        self.dispatch = dispatch
        self.put_blob = put_blob

    def run(self, partitions: List[Partition]) -> PartitionRunResult:
        result = PartitionRunResult()
        result.partitions = partitions
        if not partitions:
            return result

        # Pull pools out of the link loader first, exactly like the
        # local runner: imports are copied before locals are released
        # (an import is usually another partition's local), and after
        # this the unit is empty until _fold re-adopts the workers'
        # final payloads.
        import_batches = [
            self._extract_imports(partition) for partition in partitions
        ]
        transfers = [self._extract(partition) for partition in partitions]

        symtab = self.hlo_result.ctx.symtab
        link_repo = self.hlo_result.loader.repository

        jobs: List[Dict] = []
        for partition, batch, imports in zip(
            partitions, transfers, import_batches
        ):
            local_by_name = {t.name: t for t in batch}
            routines = []
            for name in partition.routines:
                transfer = local_by_name.get(name)
                if transfer is None:
                    # A thin-WPA clone: no body yet -- the worker's
                    # plan replay creates it.
                    routines.append({"name": name})
                    continue
                if transfer.expanded is not None:
                    data = compact_routine(transfer.expanded, symtab)
                elif transfer.compact_bytes is not None:
                    data = transfer.compact_bytes
                else:
                    data = link_repo.fetch(KIND_IR, transfer.name)
                routines.append({
                    "name": transfer.name,
                    "pool": self.put_blob(data),
                })
            job = {
                "index": partition.index,
                "weight": partition.weight,
                "routines": routines,
            }
            if partition.imports:
                import_by_name = {t.name: t for t in imports}
                entries = []
                for name in partition.imports:
                    transfer = import_by_name.get(name)
                    if transfer is None:
                        entries.append({"name": name})  # imported clone
                        continue
                    if transfer.compact_bytes is not None:
                        data = transfer.compact_bytes
                    else:
                        data = link_repo.fetch(KIND_IR, name)
                    entries.append({
                        "name": name,
                        "pool": self.put_blob(data),
                    })
                job["imports"] = entries
            jobs.append(job)

        # Encode the shared context only after every routine has been
        # compacted: compaction interns symbols on demand, and the
        # workers rebuild the symtab from the shipped PID order, so the
        # snapshot must come last to cover every reference in the
        # compact IR.  build_context_blob caches the canonical bytes on
        # the link repository (keyed by mutation epoch + structural
        # fingerprint), so warm rebuilds of an unchanged program skip
        # the re-encode on the farm and local process paths alike.
        context_key = self.put_blob(build_context_blob(
            self.hlo_result, self.llo_options, self.naim_config,
            self.scalar_set,
        ))
        for job in jobs:
            job["ctx"] = context_key

        span = (self.events.span(self.DISPATCH_SPAN,
                                 category=self.DISPATCH_CATEGORY)
                if self.events is not None else None)
        if span is not None:
            with span:
                outcomes = self.dispatch(jobs)
        else:
            outcomes = self.dispatch(jobs)

        by_index = {}
        for payload in outcomes:
            if payload is None:
                continue
            by_index[payload.get("index")] = payload
        for partition in partitions:
            payload = by_index.get(partition.index)
            if payload is None:
                raise RemoteDispatchError(
                    "no outcome for partition %d" % partition.index
                )
            self._fold(result, decode_outcome(partition, payload))
        if self.plan is not None:
            # Workers replayed their plan slices; the returned pools
            # are final bodies, so phase 5 must not replay again.
            self.hlo_result.mark_plan_replayed()
        return result
