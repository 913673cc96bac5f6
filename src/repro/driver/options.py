"""User-facing compiler options, mirroring the HP-UX flag set.

===========  =====================================================
HP-UX flag   Here
===========  =====================================================
+O0 .. +O2   ``opt_level`` 0-2 (intraprocedural ladder)
+O4          ``opt_level`` 4 (link-time CMO through HLO)
+P           ``pbo=True`` (use a profile database)
+I           ``instrument=True`` (build with counting probes)
(§5)         ``selectivity_percent`` (coarse-grained selectivity)
===========  =====================================================
"""

from __future__ import annotations

from typing import Optional

from ..hlo.options import HloOptions
from ..naim.config import NaimConfig
from ..vm.cost import CostModel

VALID_OPT_LEVELS = (0, 1, 2, 4)
VALID_HLO_BACKENDS = ("auto", "processes")


class CompilerOptions:
    """Policy for one build."""

    def __init__(
        self,
        opt_level: int = 2,
        pbo: bool = False,
        instrument: bool = False,
        selectivity_percent: Optional[float] = None,
        naim: Optional[NaimConfig] = None,
        hlo: Optional[HloOptions] = None,
        cost_model: Optional[CostModel] = None,
        checked: bool = False,
        cmo_modules: Optional[frozenset] = None,
        repository_dir: Optional[str] = None,
        multi_layer: bool = False,
        hlo_jobs: int = 1,
        hlo_partitions: Optional[int] = None,
        hlo_backend: str = "auto",
    ) -> None:
        if opt_level not in VALID_OPT_LEVELS:
            raise ValueError(
                "opt_level must be one of %r" % (VALID_OPT_LEVELS,)
            )
        if selectivity_percent is not None and not 0 <= selectivity_percent <= 100:
            raise ValueError("selectivity_percent must be within [0, 100]")
        if instrument and opt_level == 4:
            raise ValueError(
                "instrumented builds use intraprocedural levels (+O2 +I); "
                "profiles feed later +O4 builds"
            )
        self.opt_level = opt_level
        self.pbo = pbo
        self.instrument = instrument
        self.selectivity_percent = selectivity_percent
        self.naim = naim or NaimConfig()
        self.hlo = hlo or HloOptions()
        self.cost_model = cost_model or CostModel()
        self.checked = checked
        #: Explicit CMO module set (triage/bench override of selectivity).
        self.cmo_modules = frozenset(cmo_modules) if cmo_modules else None
        #: Directory for the NAIM disk repository (None = in-memory).
        self.repository_dir = repository_dir
        #: Paper §8 extension: tier non-CMO modules (warm +O2, cold +O1).
        self.multi_layer = multi_layer
        if hlo_jobs < 1:
            raise ValueError("hlo_jobs must be >= 1")
        if hlo_partitions is not None and hlo_partitions < 1:
            raise ValueError("hlo_partitions must be >= 1")
        #: Workers for the partitioned LTRANS backend (1 = the serial
        #: reference path).  Output is byte-identical either way, so
        #: neither knob enters :meth:`describe` (and hence no artifact
        #: or incremental fingerprint).
        self.hlo_jobs = hlo_jobs
        #: Partition count override (None = derived from ``hlo_jobs``).
        self.hlo_partitions = hlo_partitions
        if hlo_backend not in VALID_HLO_BACKENDS:
            raise ValueError(
                "hlo_backend must be one of %r, not %r"
                % (VALID_HLO_BACKENDS, hlo_backend)
            )
        #: Where LTRANS partitions execute: "processes" (worker
        #: processes, real CPU parallelism) or "auto" (processes
        #: whenever more than one effective worker would run and the
        #: platform supports them, else the link process itself).
        #: Like the two knobs above it never affects output bytes, so
        #: it stays out of :meth:`describe`.
        self.hlo_backend = hlo_backend

    @property
    def use_partitioned_hlo(self) -> bool:
        """Whether the link should run the partitioned LTRANS backend."""
        return self.hlo_jobs > 1 or self.hlo_partitions is not None

    @property
    def is_cmo(self) -> bool:
        return self.opt_level == 4

    @property
    def llo_level(self) -> int:
        """The LLO ladder level backing this opt level."""
        return min(self.opt_level, 2)

    def describe(self) -> str:
        parts = ["+O%d" % self.opt_level]
        if self.pbo:
            parts.append("+P")
        if self.instrument:
            parts.append("+I")
        if self.selectivity_percent is not None:
            parts.append("sel=%.0f%%" % self.selectivity_percent)
        return " ".join(parts)

    def __repr__(self) -> str:
        return "<CompilerOptions %s>" % self.describe()
