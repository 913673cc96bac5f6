"""The build server: warm build engines, and a compile farm over TCP.

One **coordinator** (:mod:`.coordinator`) speaks the build protocol
(:mod:`.protocol`) to clients over TCP and keeps compile state
resident between requests (:mod:`.state`): the artifact cache, one
warm :class:`~repro.driver.BuildEngine` per build configuration,
and an LTRANS process pool.  With no workers attached it runs every
build itself.  When **workers** (:mod:`.worker`) attach, it runs the
serial WPA phase and dispatches the resulting partitions through one
pull queue that hands out the heaviest pending partition first
(:class:`repro.sched.TaskQueue`).  Partition inputs and results
travel through a shared **content-addressed store** (:mod:`.store`)
kept in the coordinator's pack-file repository, so a warm rebuild
writes nothing new and any worker can run any partition.

Every connection authenticates with a shared secret (:mod:`
.transport`); clients reach the coordinator with ``python -m
repro.driver build --farm HOST:PORT``.  Its images are byte-identical
to cold-CLI images, with or without workers -- a worker runs the
LTRANS body a serial link runs (:func:`repro.hlo.driver.run_ltrans`),
reached through :mod:`repro.part.wire`.
"""

from .client import FarmClient, FarmError
from .coordinator import FarmCoordinator, run_coordinator
from .transport import AuthError, parse_endpoint
from .worker import FarmWorker, run_worker

__all__ = [
    "FarmClient",
    "FarmError",
    "FarmCoordinator",
    "run_coordinator",
    "AuthError",
    "parse_endpoint",
    "FarmWorker",
    "run_worker",
]
