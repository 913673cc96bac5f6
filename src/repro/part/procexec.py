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
  coordinator's warm state.

:func:`run_partition_job` is the worker-process body: attach the blob
(cached per process per blob) and hand the job to
:func:`~repro.part.wire.run_wire_job` with a per-process decoded-context
cache, so a warm coordinator pool skips symtab reconstruction exactly like
a farm worker.
"""

from __future__ import annotations

import hashlib
import os
import signal
from collections import OrderedDict
from typing import Dict, List, Optional

from ..sched.events import EventLog
from ..sched.procpool import ProcessWorkerPool, processes_available
from .blob import AttachedBlob, _ref_key, attach_blob, publish_sections
from .wire import ContextCache, run_wire_job

#: Test hook: when this environment variable names an existing file,
#: the first worker process to claim it (atomically, via unlink)
#: SIGKILLs itself mid-batch -- exercising the crash re-queue path in
#: end-to-end builds.  Unset in normal operation.
KILL_MARKER_ENV = "REPRO_TEST_LTRANS_KILL"


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
        retry_limit: int = 2,
    ) -> None:
        self.jobs = max(1, jobs)
        self.events = events
        self._sections: "OrderedDict[str, bytes]" = OrderedDict()
        self._pool = pool
        self.retry_limit = retry_limit
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
        pool = self._pool
        if pool is None:
            pool = ProcessWorkerPool(run_partition_job,
                                     retry_limit=self.retry_limit)
        kill_marker = os.environ.get(KILL_MARKER_ENV)
        ref = publication.ref()
        tasks = []
        for job in jobs:
            payload = {"blob": ref, "job": job}
            if kill_marker:
                payload["kill_marker"] = kill_marker
            tasks.append((
                "ltrans:p%d" % job["index"], payload,
                int(job.get("weight", 1)),
            ))
        spawn_before = pool.spawn_seconds
        crashes_before = pool.crashes
        requeues_before = pool.requeues
        try:
            results = pool.run_batch(
                tasks, jobs=self.jobs, events=self.events,
                category="ltrans",
            )
        finally:
            self._stats = {
                "blob_bytes": publication.size,
                "spawn_seconds": pool.spawn_seconds - spawn_before,
                "workers": min(self.jobs, len(tasks)),
                "crashes": pool.crashes - crashes_before,
                "requeues": pool.requeues - requeues_before,
            }
            publication.close()
            self._sections.clear()
            if pool is not self._pool:
                pool.close()
        return [results["ltrans:p%d" % job["index"]] for job in jobs]


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
