"""NAIM: the not-all-in-memory model for large-program optimization."""

from .compaction import (
    CompactionError,
    compact_routine,
    compact_symtab,
    routines_equal,
    uncompact_routine,
    uncompact_symtab,
    zigzag_decode,
    zigzag_encode,
)
from .config import NaimConfig, NaimLevel
from .loader import Loader, LoaderStats, UnsignalledMutationError
from .memory import (
    CostTable,
    MemoryAccountant,
    callgraph_bytes,
    expanded_routine_bytes,
    expanded_symtab_bytes,
    fmt_bytes,
    llo_working_bytes,
    program_symtab_bytes,
)
from .pools import (
    KIND_IR,
    KIND_SYMTAB,
    Handle,
    Pool,
    PoolState,
    ReleasedPoolError,
)
from .prefetch import PrefetchPipeline
from .repository import (
    OverlayRepository,
    Repository,
    RepositoryError,
)

__all__ = [
    "CompactionError",
    "compact_routine",
    "compact_symtab",
    "routines_equal",
    "uncompact_routine",
    "uncompact_symtab",
    "zigzag_decode",
    "zigzag_encode",
    "NaimConfig",
    "NaimLevel",
    "Loader",
    "LoaderStats",
    "UnsignalledMutationError",
    "CostTable",
    "MemoryAccountant",
    "callgraph_bytes",
    "expanded_routine_bytes",
    "expanded_symtab_bytes",
    "fmt_bytes",
    "llo_working_bytes",
    "program_symtab_bytes",
    "KIND_IR",
    "KIND_SYMTAB",
    "Handle",
    "Pool",
    "PoolState",
    "ReleasedPoolError",
    "OverlayRepository",
    "PrefetchPipeline",
    "Repository",
    "RepositoryError",
]
