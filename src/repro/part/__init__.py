"""Partitioned parallel whole-program optimization (WHOPR-style).

The serial whole-program phases (DFE, IPCP, cloning, inlining -- the
WPA half) stay in :mod:`repro.hlo.driver`; this package supplies the
LTRANS half: :func:`partition_unit` splits the post-inline CMO unit
into profile-weight-balanced partitions, and :class:`PartitionRunner`
ships each partition through a transport to
:func:`~repro.part.wire.execute_partition_job` (the serial link's
LTRANS body, :func:`~repro.hlo.driver.run_ltrans`, on one partition),
splicing results back in canonical unit order so the final image is
byte-identical to a serial build.

One runner, one LTRANS body, three transports: the link process
itself (:mod:`.runner`), local worker processes over one shared-memory
blob (:mod:`.procexec` + :mod:`.blob` -- real CPU parallelism past the
GIL), and farm workers over TCP (:mod:`repro.farm.coordinator`).
"""

from .partition import Partition, partition_unit
from .runner import PartitionRunner, PartitionRunResult

__all__ = [
    "Partition",
    "partition_unit",
    "PartitionRunner",
    "PartitionRunResult",
]

# repro.part.procexec / repro.part.blob (process transport) are
# imported directly by their users; keeping them out of this namespace
# avoids pulling multiprocessing into every partitioned build.
