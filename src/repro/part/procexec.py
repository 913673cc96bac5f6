"""Process-parallel LTRANS: partitions executed by local child processes.

The pure-Python scalar+LLO phase cannot scale past the GIL inside one
interpreter; this transport runs each partition in a worker *process*
instead -- the WHOPR model (one LTRANS process per partition) executed
locally.

:class:`ProcessTransport` is the :class:`~repro.part.runner.
PartitionRunner` transport for that:

* ``put_blob`` collects sections in memory;
* ``dispatch`` publishes them once via :mod:`repro.part.blob` (shared
  memory, tempfile+mmap fallback) and runs the jobs on a
  :class:`~repro.sched.procpool.ProcessWorkerPool` -- either an
  ephemeral pool (cold CLI) or a persistent one injected by the
  coordinator's warm state.  The pool runs the batch on a
  :class:`~repro.sched.tasks.TaskQueue`, the farm's dispatch order and
  retry rule, through the dispatch the farm shares
  (:func:`~repro.part.runner.queue_jobs`).

:func:`run_partition_job` is the worker-process body: attach the blob
(cached per process per blob) and hand the job to
:func:`~repro.part.wire.run_wire_job` with a per-process decoded-context
cache, so a warm coordinator pool skips symtab reconstruction exactly like
a farm worker.
"""

from __future__ import annotations

import functools
import hashlib
import os
import signal
from collections import OrderedDict
from typing import Dict, List, Optional

from ..sched.events import EventLog
from ..sched.procpool import ProcessWorkerPool, processes_available
from .blob import AttachedBlob, _ref_key, attach_blob, publish_sections
from .runner import queue_jobs
from .wire import ContextCache, run_wire_job

#: Test hook: when this environment variable names an existing file,
#: the first worker process to claim it (atomically, via unlink)
#: SIGKILLs itself mid-batch -- exercising the crash re-queue path in
#: end-to-end builds.  Unset in normal operation.
KILL_MARKER_ENV = "REPRO_TEST_LTRANS_KILL"

#: Pool counters a dispatch reports as the deltas it caused.
_POOL_COSTS = ("spawn_seconds", "crashes", "requeues")


def processes_supported() -> bool:
    """Whether the local process backend can run on this platform."""
    return processes_available()


class ProcessTransport:
    """Partition jobs over local worker processes."""

    def __init__(
        self,
        jobs: int = 1,
        events: Optional[EventLog] = None,
        pool: Optional[ProcessWorkerPool] = None,
    ) -> None:
        self.jobs = max(1, jobs)
        self.events = events
        self._sections: "OrderedDict[str, bytes]" = OrderedDict()
        self._pool = pool
        self._stats: Dict[str, object] = {}

    def stats(self) -> Dict[str, object]:
        """What the last :meth:`dispatch` cost (bench/report use)."""
        return dict(self._stats)

    def put_blob(self, data: bytes) -> str:
        key = hashlib.sha256(data).hexdigest()
        if key not in self._sections:
            self._sections[key] = data
        return key

    def dispatch(self, jobs: List[Dict]) -> List[Dict]:
        publication = publish_sections(self._sections)
        pool = self._pool or ProcessWorkerPool(run_partition_job)
        shared = {"blob": publication.ref()}
        if os.environ.get(KILL_MARKER_ENV):
            shared["kill_marker"] = os.environ[KILL_MARKER_ENV]
        before = {key: getattr(pool, key) for key in _POOL_COSTS}
        try:
            return queue_jobs(
                jobs, functools.partial(pool.run_batch, jobs=self.jobs,
                                        events=self.events),
                payload=lambda job: dict(shared, job=job),
            )
        finally:
            self._stats = {"blob_bytes": publication.size,
                           "workers": min(self.jobs, len(jobs))}
            for key in _POOL_COSTS:
                self._stats[key] = getattr(pool, key) - before[key]
            publication.close()
            self._sections.clear()
            if pool is not self._pool:
                pool.close()


# -- Worker-process side -----------------------------------------------------------

#: One attached blob per process: each build publishes a fresh
#: segment, so a cache depth of one is exactly "the current build".
_blob_cache: Optional[AttachedBlob] = None

_contexts = ContextCache()


class _BlobStore:
    """The ``get_blob``/``get_blobs`` surface
    :class:`~repro.part.wire.CasBackedRepository` wants, served from
    one attached blob."""

    def __init__(self, blob: AttachedBlob) -> None:
        self._blob = blob

    def get_blob(self, key: str) -> bytes:
        return self._blob.get(key)

    def get_blobs(self, keys) -> Dict[str, bytes]:
        return {key: self._blob.get(key) for key in keys}


def _attached(ref: Dict) -> AttachedBlob:
    global _blob_cache
    cached = _blob_cache
    if cached is not None and cached.ref_key == _ref_key(ref):
        return cached
    if cached is not None:
        cached.close()
    _blob_cache = attach_blob(ref)
    return _blob_cache


def _maybe_die_for_test(payload: Dict) -> None:
    marker = payload.get("kill_marker")
    if not marker:
        return
    try:
        os.unlink(marker)
    except OSError:
        return  # another worker claimed it (or it never existed)
    os.kill(os.getpid(), signal.SIGKILL)


def run_partition_job(payload: Dict) -> Dict:
    """Worker-process task body (module-level: spawn-picklable)."""
    _maybe_die_for_test(payload)
    store = _BlobStore(_attached(payload["blob"]))
    return run_wire_job(payload["job"], store, _contexts)
