"""Object pools and handles (paper §4.1, Figure 3).

A *pool* is the unit of compaction and offloading: one routine's IR, or
one module's symbol table.  Pools move between three states:

* ``EXPANDED`` -- ordinary objects, resident in memory;
* ``COMPACT`` -- relocatable byte string, resident in memory;
* ``OFFLOADED`` -- relocatable bytes live only in the disk repository.

A pool its loader has let go of is ``RELEASED``: its handle no longer
answers (:class:`ReleasedPoolError`).

Downward references (from global objects to transitory ones) go through
:class:`Handle` objects, which "track the status of the more transitory
object, so that if a reference is made to a relocatable object, the
appropriate action can be taken" -- concretely, the handle routes every
access through the loader.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional, Union

from ..ir.routine import Routine
from ..ir.symbols import ModuleSymbolTable
from .memory import expanded_routine_bytes, expanded_symtab_bytes

if TYPE_CHECKING:  # pragma: no cover
    from .loader import Loader


class PoolState(enum.Enum):
    """Where a pool's data currently lives."""

    EXPANDED = "expanded"
    COMPACT = "compact"
    OFFLOADED = "offloaded"
    #: The loader forgot the pool (ownership moved, or the body is spent).
    RELEASED = "released"


class ReleasedPoolError(KeyError):
    """A handle was read after its loader released the pool.

    Whatever the repository still holds under the pool's name is the
    last body that was *stored*, not the last one that existed, so the
    loader refuses rather than fetch it."""

    def __init__(self, kind: str, name: str) -> None:
        super().__init__(kind, name)
        self.kind = kind
        self.name = name

    def __str__(self) -> str:
        return "pool %s:%s was released by its loader" % (self.kind, self.name)


#: Pool kinds.
KIND_IR = "ir"
KIND_SYMTAB = "symtab"


class Pool:
    """One relocatable object pool."""

    __slots__ = (
        "kind",
        "name",
        "state",
        "expanded",
        "compact_bytes",
        "unload_pending",
        "last_touch",
        "pinned",
        "borrowed",
        "clean_at",
    )

    def __init__(
        self,
        kind: str,
        name: str,
        expanded: Union[Routine, ModuleSymbolTable],
    ) -> None:
        self.kind = kind
        self.name = name
        self.state = PoolState.EXPANDED
        self.expanded: Optional[Union[Routine, ModuleSymbolTable]] = expanded
        self.compact_bytes: Optional[bytes] = None
        #: Client asked for unload; the loader may defer it (cache).
        self.unload_pending = False
        #: LRU clock value of the last touch.
        self.last_touch = 0
        #: Pinned pools are never unloaded (actively being transformed).
        self.pinned = False
        #: ``expanded`` is still the object the client registered, which
        #: the client may share with others (the linker registers
        #: object-file IL); see :meth:`Loader.privatize`.
        self.borrowed = False
        #: ``expanded.derived.mutations`` when ``expanded`` was decoded
        #: from the bytes the repository holds under this pool's name;
        #: None when the repository does not hold this body (routine
        #: pools only; see :meth:`unchanged_since_fetch`).
        self.clean_at: Optional[int] = None

    def unchanged_since_fetch(self) -> bool:
        """True when the repository's bytes still describe ``expanded``:
        it was decoded from them and no mutator has invalidated it."""
        return (
            self.clean_at is not None
            and self.expanded.derived.mutations == self.clean_at
        )

    # -- Sizing ---------------------------------------------------------------

    def resident_bytes(self) -> int:
        """Modeled bytes this pool currently holds in memory."""
        if self.state is PoolState.EXPANDED:
            assert self.expanded is not None
            if self.kind == KIND_IR:
                return expanded_routine_bytes(self.expanded)
            return expanded_symtab_bytes(self.expanded)
        if self.state is PoolState.COMPACT:
            assert self.compact_bytes is not None
            return len(self.compact_bytes)
        return 0  # OFFLOADED, RELEASED

    def key(self):
        return (self.kind, self.name)

    def __repr__(self) -> str:
        return "<Pool %s:%s %s%s>" % (
            self.kind,
            self.name,
            self.state.value,
            " pending" if self.unload_pending else "",
        )


class Handle:
    """A downward reference from global structures to a pool.

    All access goes through :meth:`get`, which asks the loader to make
    the pool expanded (loading/uncompacting as needed) and refreshes
    the LRU clock.
    """

    __slots__ = ("pool", "loader")

    def __init__(self, pool: Pool, loader: "Loader") -> None:
        self.pool = pool
        self.loader = loader

    def get(self) -> Union[Routine, ModuleSymbolTable]:
        return self.loader.touch(self.pool)

    def peek_state(self) -> PoolState:
        return self.pool.state

    @property
    def name(self) -> str:
        return self.pool.name

    def request_unload(self) -> None:
        self.loader.request_unload(self.pool)

    def __repr__(self) -> str:
        return "<Handle %s:%s (%s)>" % (
            self.pool.kind,
            self.pool.name,
            self.pool.state.value,
        )
