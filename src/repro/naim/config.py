"""NAIM configuration: feature levels and memory thresholds (paper §4.3).

The paper's HLO "only uses NAIM functionality when necessary": a series
of memory thresholds tied to the machine's physical memory turn on more
and more of the machinery -- first IR compaction, then symbol-table
compaction, then offloading to disk repositories.  :class:`NaimConfig`
models exactly that, plus an explicit-level mode used by the Figure 5
benchmark to pin each configuration.
"""

from __future__ import annotations

import enum
from typing import Optional


class NaimLevel(enum.IntEnum):
    """How much NAIM machinery is active (cumulative)."""

    #: Everything stays expanded in memory (HP-UX 9.0 behaviour).
    OFF = 0
    #: Inactive routine IR is compacted in memory (HP-UX 10.01).
    IR_COMPACT = 1
    #: Module symbol tables are compacted too.
    ST_COMPACT = 2
    #: Compacted pools are offloaded to the disk repository (HP-UX 10.20).
    OFFLOAD = 3


class NaimConfig:
    """Loader policy knobs.

    In ``auto`` mode (``level is None``) the effective level is derived
    from current modeled memory use against thresholds expressed as
    fractions of ``physical_memory_bytes``; pinning ``level`` disables
    thresholding (used for controlled experiments).
    """

    def __init__(
        self,
        physical_memory_bytes: int = 256 * 1024 * 1024,
        level: Optional[NaimLevel] = None,
        ir_compact_fraction: float = 0.25,
        st_compact_fraction: float = 0.50,
        offload_fraction: float = 0.75,
        cache_pools: Optional[int] = None,
        cache_fraction: float = 0.20,
        avg_pool_bytes_hint: int = 64 * 1024,
    ) -> None:
        self.physical_memory_bytes = physical_memory_bytes
        self.level = level
        self.ir_compact_fraction = ir_compact_fraction
        self.st_compact_fraction = st_compact_fraction
        self.offload_fraction = offload_fraction
        #: Expanded-pool cache capacity; None derives it from memory size
        #: ("cache sizes are based dynamically on the memory resources of
        #: the machine").
        self._cache_pools = cache_pools
        self.cache_fraction = cache_fraction
        self.avg_pool_bytes_hint = avg_pool_bytes_hint

    # -- Derived policy -------------------------------------------------------

    @property
    def cache_pools(self) -> int:
        if self._cache_pools is not None:
            return self._cache_pools
        budget = int(self.physical_memory_bytes * self.cache_fraction)
        return max(4, budget // self.avg_pool_bytes_hint)

    def effective_level(self, current_bytes: int) -> NaimLevel:
        """The NAIM level in force at the given modeled memory use."""
        if self.level is not None:
            return self.level
        memory = self.physical_memory_bytes
        if current_bytes >= memory * self.offload_fraction:
            return NaimLevel.OFFLOAD
        if current_bytes >= memory * self.st_compact_fraction:
            return NaimLevel.ST_COMPACT
        if current_bytes >= memory * self.ir_compact_fraction:
            return NaimLevel.IR_COMPACT
        return NaimLevel.OFF

    @staticmethod
    def pinned(level: NaimLevel, cache_pools: int = 16) -> "NaimConfig":
        """A config locked to one level (Figure 5 experiment points)."""
        return NaimConfig(level=level, cache_pools=cache_pools)

    def __repr__(self) -> str:
        mode = "auto" if self.level is None else self.level.name
        return "<NaimConfig %s mem=%dMB cache=%d pools>" % (
            mode,
            self.physical_memory_bytes // (1024 * 1024),
            self.cache_pools,
        )
