"""Pre-unification names of :mod:`repro.part.runner`.

The farm used to subclass the runner here; now every transport drives
the one :class:`~repro.part.runner.PartitionRunner`.
"""

from .runner import PartitionRunner, RemoteDispatchError

# The frozen benchmark's span table (benchmarks/perf/tracing.py) wraps
# ``RemotePartitionRunner.run`` by name.  It wraps the same method twice
# this way; measure._busy counts nested same-name spans once.
RemotePartitionRunner = PartitionRunner

__all__ = ["RemoteDispatchError", "RemotePartitionRunner"]
