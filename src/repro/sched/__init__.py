"""Build support: artifact cache, build-event tracing, worker pools.

A build is a loop over its modules (see
:class:`~repro.driver.build.BuildEngine` and
:meth:`~repro.driver.compiler.Compiler.build`); what this package adds
around it is a content-addressed artifact cache shared across build
engines, structured build events that export as Chrome
``trace_event`` JSON, and the process-level parallelism the partitioned
link-time backend uses: a persistent worker-process pool (``procpool``)
and the farm's heaviest-first pull queue (``tasks``).
"""

from .artifacts import PIPELINE_EPOCH, ArtifactCache, CacheStats
from .events import BuildEvent, EventLog
from .tasks import Task, TaskFailure, TaskQueue

__all__ = [
    "PIPELINE_EPOCH",
    "ArtifactCache",
    "CacheStats",
    "BuildEvent",
    "EventLog",
    "Task",
    "TaskFailure",
    "TaskQueue",
]
