"""Distributed compile farm: coordinator + workers over TCP.

The single-process daemon (:mod:`repro.serve`) scales to one
machine's cores; the farm scales the LTRANS half across machines.
One **coordinator** (:mod:`.coordinator`) speaks the existing build
protocol to clients over TCP, runs the serial WPA phase itself, and
dispatches the resulting partitions to connected **workers**
(:mod:`.worker`) through one pull queue that hands out the heaviest
pending partition first (:class:`repro.sched.TaskQueue`).  Partition
inputs and results travel through a shared **content-addressed
store** (:mod:`.store`) kept in the coordinator's pack-file
repository, so a warm rebuild writes nothing new and any worker can
run any partition.

Every connection authenticates with a shared secret (:mod:`
.transport`); clients reach the farm with ``python -m repro.driver
build --farm HOST:PORT``.  Farm images are byte-identical to
single-daemon and cold-CLI images -- a worker runs the LTRANS body
a serial link runs (:func:`repro.hlo.driver.run_ltrans`), reached
through :mod:`repro.part.wire`.
"""

from .client import FarmClient
from .coordinator import FarmCoordinator, run_coordinator
from .transport import AuthError, parse_endpoint
from .worker import FarmWorker, run_worker

__all__ = [
    "FarmClient",
    "FarmCoordinator",
    "run_coordinator",
    "AuthError",
    "parse_endpoint",
    "FarmWorker",
    "run_worker",
]
