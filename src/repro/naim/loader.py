"""The loader: moves pools between expanded, compact and offloaded
states (paper §4.2-4.3).

Behaviour reproduced from the paper:

* clients only ever *request* unloads; the loader decides lazily.  A
  requested pool is marked "unload pending" and parked in an LRU cache
  of expanded pools, so a prompt re-touch is nearly free;
* the cache size derives from the machine's memory resources;
* thresholding: NAIM features (IR compaction, symbol-table compaction,
  disk offload) engage only as modeled memory use crosses configured
  thresholds, so small compilations pay nothing;
* every state transition updates the memory accountant, which is how
  Figures 4 and 5 get their memory axes.

One rule bounds what the codec is paid for: a routine pool is encoded
only if its bytes may differ from what the repository holds.  A body
decoded from the repository and not invalidated since
(:meth:`Pool.unchanged_since_fetch`) is evicted by dropping the object,
and a body nothing will read again is released, not unloaded
(docs/naim_internals.md, "Who encodes when").
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..ir.routine import Routine
from ..ir.symbols import ModuleSymbolTable, ProgramSymbolTable
from .compaction import (
    compact_routine,
    compact_symtab,
    uncompact_routine,
    uncompact_symtab,
)
from .config import NaimConfig, NaimLevel
from .memory import MemoryAccountant
from .pools import (
    KIND_IR,
    KIND_SYMTAB,
    Handle,
    Pool,
    PoolState,
    ReleasedPoolError,
)
from .prefetch import PrefetchPipeline
from .repository import Repository


class UnsignalledMutationError(Exception):
    """Checked builds: a body the loader took for clean no longer
    encodes to the repository's bytes, or no longer has the instruction
    count it was last sized with.

    Some mutator edited ``routine`` during ``phase`` without calling
    ``invalidate()`` / ``invalidate_instrs()``; an unchecked build
    would have dropped the body and silently lost the edit, or kept
    accounting its old size."""

    def __init__(self, routine: str, phase: str) -> None:
        super().__init__(
            "routine %s was mutated during %s without invalidate(): its "
            "clean eviction would lose the edit, its modeled size is "
            "stale" % (routine, phase)
        )
        self.routine = routine
        self.phase = phase


def _verify_size(routine: Routine, phase: str) -> None:
    """Checked builds: the remembered instruction count the accountant
    sized ``routine`` with is the one a walk gives."""
    if routine.sized_instr_count() != routine.instr_count():
        raise UnsignalledMutationError(routine.name, phase)


class LoaderStats:
    """Observable loader activity (drives the Figure 5 ablation)."""

    def __init__(self) -> None:
        self.touches = 0
        self.cache_hits = 0
        self.compactions = 0
        self.uncompactions = 0
        self.offloads = 0
        self.repository_fetches = 0
        self.unload_requests = 0
        self.prefetches = 0
        #: Touches served from the prefetch pipeline's staging area
        #: (the fetch+decode had already happened off the hot path).
        self.prefetch_hits = 0
        #: Pools dropped outright (dead-function elimination).
        self.drops = 0
        #: Evictions that dropped an unmutated body the repository
        #: already held: no encode, no store (not in ``compactions``).
        self.clean_evictions = 0
        #: Pools released because their machine code exists (or is
        #: reused) and nothing reads the body again.
        self.released_spent = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)

    def reset(self) -> None:
        """Zero every counter (a warm process starting a new build)."""
        for name in self.__dict__:
            setattr(self, name, 0)

    def merge(self, other: "LoaderStats") -> None:
        """Fold another loader's counters into this one (cross-worker
        aggregation)."""
        for name, value in other.as_dict().items():
            setattr(self, name, getattr(self, name) + value)

    def __repr__(self) -> str:
        return (
            "<LoaderStats touches=%d hits=%d compact=%d uncompact=%d "
            "offload=%d fetch=%d>"
            % (
                self.touches,
                self.cache_hits,
                self.compactions,
                self.uncompactions,
                self.offloads,
                self.repository_fetches,
            )
        )


class Loader:
    """Manages every transitory pool of one CMO compilation."""

    def __init__(
        self,
        config: NaimConfig,
        symtab: ProgramSymbolTable,
        accountant: Optional[MemoryAccountant] = None,
        repository: Optional[Repository] = None,
        checked: bool = False,
    ) -> None:
        self.config = config
        self.symtab = symtab
        self.accountant = accountant if accountant is not None else (
            MemoryAccountant()
        )
        # Explicit None check: an empty Repository is falsy (__len__ == 0).
        self.repository = repository if repository is not None else (
            Repository(in_memory=True)
        )
        self.stats = LoaderStats()
        #: Checked builds (``HloOptions.checked``) re-encode every clean
        #: eviction and compare it with the repository's bytes.
        self.checked = checked
        #: What the client is doing, for diagnostics; clients set it at
        #: their phase boundaries.
        self.phase = "wpa"
        self._pools: Dict[Tuple[str, str], Pool] = {}
        self._clock = 0
        # Counts of expanded, unpinned pools by kind (cache-capacity
        # enforcement without scanning every pool on every touch).
        # Symbol-table pools only become eviction-eligible at the
        # ST_COMPACT level, hence the split.
        self._expanded_ir = 0
        self._expanded_symtab = 0
        # Lazy eviction heaps of (last_touch, kind, name).  Entries are
        # pushed on every touch and validated on pop (an entry whose
        # recorded touch no longer matches the pool's is stale), so
        # eviction is O(evicted·log n) instead of re-sorting every
        # expanded pool.  Released pools queue in the pending heap and
        # are evicted ahead of same-age LRU peers.
        self._lru_heap: List[Tuple[int, str, str]] = []
        self._pending_heap: List[Tuple[int, str, str]] = []
        # Touch clock of the most recently used unpinned expanded pool;
        # that pool is never evicted (prompt re-touches stay free).
        self._newest_touch = 0
        # Eviction runs when the count exceeds capacity by this slack.
        self._enforce_slack = 8
        # Background fetch+decode pipeline, created on first prefetch
        # (so builds that never offload pay nothing).
        self._prefetcher: Optional[PrefetchPipeline] = None

    # -- Registration -----------------------------------------------------------

    def register_routine(self, routine: Routine) -> Handle:
        return self._register(KIND_IR, routine.name, routine)

    def register_symtab(self, symtab: ModuleSymbolTable) -> Handle:
        return self._register(KIND_SYMTAB, symtab.module_name, symtab)

    def _register(self, kind: str, name: str, obj) -> Handle:
        key = (kind, name)
        if key in self._pools:
            raise ValueError("pool %s:%s already registered" % (kind, name))
        pool = Pool(kind, name, obj)
        pool.borrowed = True
        self._clock += 1
        pool.last_touch = self._clock  # registration counts as a touch
        self._pools[key] = pool
        self._expanded_add(pool, 1)
        self._note_use(pool)
        self._account(pool)
        self._maybe_enforce()
        return Handle(pool, self)

    def adopt_routine(
        self,
        name: str,
        expanded: Optional[Routine] = None,
        compact_bytes: Optional[bytes] = None,
        offloaded: bool = False,
    ) -> Handle:
        """Take ownership of a routine pool in a known state.

        Partition workers inherit pools from the link-wide loader in
        whatever state the serial phases left them: expanded (pass the
        object), compact (pass the bytes), or offloaded (the worker's
        repository can fetch them on demand).
        """
        key = (KIND_IR, name)
        if key in self._pools:
            raise ValueError("pool %s:%s already registered" % key)
        pool = Pool(KIND_IR, name, expanded)
        self._clock += 1
        pool.last_touch = self._clock
        if expanded is not None:
            self._expanded_add(pool, 1)
            self._note_use(pool)
        elif compact_bytes is not None:
            pool.compact_bytes = compact_bytes
            pool.state = PoolState.COMPACT
        elif offloaded:
            pool.state = PoolState.OFFLOADED
        else:
            raise ValueError("adopt_routine needs a state for %r" % name)
        self._pools[key] = pool
        self._account(pool)
        self._maybe_enforce()
        return Handle(pool, self)

    def drop(self, handle: Handle) -> None:
        """Remove a pool entirely (routine deleted by dead-function elim).

        Also discards the pool's repository entry so dead-function
        pools do not linger on disk until the next prune.  On disk
        the discard marks the entry dead rather than deleting
        bytes; the dead bytes are surfaced through the accountant's
        reclaimable gauge so nothing leaks silently until compaction.
        """
        pool = handle.pool
        self.release(handle)
        self.repository.discard(pool.kind, pool.name)
        self.stats.drops += 1
        self._update_repo_gauges()

    def _update_repo_gauges(self) -> None:
        """Mirror repository state gauges into the accountant."""
        self.accountant.set_reclaimable(self.repository.reclaimable_bytes)
        self.accountant.set_mapped(self.repository.mapped_bytes())

    def release(self, handle: Handle) -> None:
        """Forget a pool without touching the repository.

        Used to transfer ownership: partition workers adopt the pool
        under their own loader, so its offloaded bytes (if any) must
        stay fetchable from the shared repository.  The handle stops
        answering (:class:`ReleasedPoolError`), and a decode the
        prefetch pipeline staged for the pool is discarded with it.
        """
        pool = handle.pool
        if self._pools.pop(pool.key(), None) is not None:
            if pool.state is PoolState.EXPANDED and not pool.pinned:
                self._expanded_add(pool, -1)
        if self._prefetcher is not None:
            self._prefetcher.discard(pool.key())
        pool.expanded = None
        pool.compact_bytes = None
        pool.clean_at = None
        pool.unload_pending = False
        pool.state = PoolState.RELEASED
        self.accountant.set_usage(pool.kind, pool.name, 0)

    def release_spent(self, handle: Handle) -> None:
        """Release a routine whose machine code exists (or is reused):
        nothing reads its IL again, so encoding it back would be paid
        for nobody."""
        self.release(handle)
        self.stats.released_spent += 1

    # -- Client API -----------------------------------------------------------------

    def touch(self, pool: Pool) -> Union[Routine, ModuleSymbolTable]:
        """Make ``pool`` expanded and return the object."""
        self._clock += 1
        pool.last_touch = self._clock
        self.stats.touches += 1
        if pool.state is PoolState.EXPANDED:
            if pool.unload_pending:
                # Cache hit: the lazy unloader never actually did the work.
                self.stats.cache_hits += 1
                pool.unload_pending = False
            self._note_use(pool)
            return pool.expanded

        if pool.state is PoolState.RELEASED:
            raise ReleasedPoolError(pool.kind, pool.name)

    # -- expand from prefetch staging, compact bytes, or disk --
        from_repository = pool.state is PoolState.OFFLOADED
        if from_repository:
            staged = (self._prefetcher.take(pool.key())
                      if self._prefetcher is not None else None)
            if staged is not None:
                # The pipeline already fetched and decoded this pool;
                # count the decode so NAIM-level ablations stay
                # comparable, but not a repository fetch (the batch
                # was counted as a prefetch).
                pool.expanded = staged
                pool.state = PoolState.EXPANDED
                self.stats.prefetch_hits += 1
                self.stats.uncompactions += 1
            else:
                data = self.repository.fetch(pool.kind, pool.name)
                self.stats.repository_fetches += 1
                pool.compact_bytes = data
                pool.state = PoolState.COMPACT
        if pool.state is not PoolState.EXPANDED:
            assert pool.compact_bytes is not None
            pool.expanded = self._decode_pool_bytes(pool.kind,
                                                    pool.compact_bytes)
            self.stats.uncompactions += 1
            pool.compact_bytes = None
        pool.state = PoolState.EXPANDED
        pool.unload_pending = False
        if pool.kind == KIND_IR:
            # The repository holds exactly what this body was decoded
            # from: until a mutator invalidates it, eviction is free.
            pool.clean_at = (
                pool.expanded.derived.mutations if from_repository else None
            )
        if not pool.pinned:
            self._expanded_add(pool, 1)
            self._note_use(pool)
        self._account(pool)
        self._maybe_enforce()
        return pool.expanded

    def prefetch(self, handles: Iterable[Handle]) -> int:
        """Queue offloaded pools into the background fetch+decode pipeline.

        The scalar worklists (serial phase 5, partition workers) call
        this a window of routines *ahead* of the one being optimized:
        a background thread fetches the batch in one
        :meth:`Repository.fetch_many` pass and decodes it, so by the
        time ``touch`` needs the pool the expensive work has already
        overlapped with optimization.  Pool state is untouched here --
        ``touch`` consumes staged objects on the owner thread, keeping
        every loader decision deterministic.  Returns the number of
        pools newly queued.
        """
        keys = [
            handle.pool.key()
            for handle in handles
            if handle.pool.state is PoolState.OFFLOADED
        ]
        if not keys:
            return 0
        if self._prefetcher is None:
            self._prefetcher = PrefetchPipeline(
                self.repository, self._decode_pool_bytes
            )
        queued = self._prefetcher.request(keys)
        self.stats.prefetches += queued
        return queued

    def _decode_pool_bytes(self, kind: str, data: bytes):
        """Compact bytes -> expanded object, eagerly: the one decode of
        both ``touch`` and the prefetch pipeline.

        On the pipeline's background thread it only reads the program
        symbol table, which is frozen during the scalar phase.  Every
        block is decoded here, so damaged bytes fail at the touch, not
        inside whichever pass first reads the bad block.
        """
        intern = getattr(self.repository, "intern", None)
        if kind == KIND_IR:
            return uncompact_routine(data, self.symtab, intern=intern)
        return uncompact_symtab(data, self.symtab, intern=intern)

    def prefetch_wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every queued prefetch is staged (tests, barriers)."""
        if self._prefetcher is None:
            return True
        return self._prefetcher.wait(timeout=timeout)

    def prefetch_staged(self) -> int:
        """Decoded pools waiting in the staging area."""
        return self._prefetcher.staged() if self._prefetcher else 0

    def stop_prefetch(self) -> None:
        """Stop the pipeline thread (end of a scalar phase / worker).

        Staged objects stay consumable; a later ``prefetch`` restarts
        the thread lazily.  Idempotent.
        """
        if self._prefetcher is not None:
            self._prefetcher.close()

    def request_unload(self, pool: Pool) -> None:
        """Mark a pool unload-pending; actual work happens lazily."""
        if pool.state is not PoolState.EXPANDED or pool.pinned:
            return
        self.stats.unload_requests += 1
        pool.unload_pending = True
        heapq.heappush(
            self._pending_heap, (pool.last_touch, pool.kind, pool.name)
        )
        self._enforce()

    def request_unload_all(self) -> None:
        """Client convenience: "unload everything you don't need"."""
        for pool in self._pools.values():
            if pool.state is PoolState.EXPANDED and not pool.pinned:
                if not pool.unload_pending:
                    pool.unload_pending = True
                    heapq.heappush(
                        self._pending_heap,
                        (pool.last_touch, pool.kind, pool.name),
                    )
        self._enforce()

    def evict(self, handle: Handle) -> None:
        """Retire a pool immediately, honoring the thresholded level.

        The summary-only WPA phase scans each body once at registration
        and will not touch it again until plan replay, so parking it in
        the LRU cache has no future hit to earn; compacting (and
        offloading, level permitting) right away keeps the
        whole-program peak bounded by summaries.  Below the compaction
        threshold this degrades to a plain unload request -- small
        builds keep paying nothing.
        """
        pool = handle.pool
        if pool.state is not PoolState.EXPANDED or pool.pinned:
            return
        level = self.effective_level()
        if level is NaimLevel.OFF:
            self.request_unload(pool)
            return
        self._compact_pool(pool, offload=level >= NaimLevel.OFFLOAD)

    def privatize(self, handle: Handle) -> None:
        """Give a routine pool a body of its own before it is mutated.

        A registered body is borrowed: whoever registered it may hand
        the same object to the next link.  Reading it is free; a client
        about to edit it calls this first and the pool swaps in a copy
        (the lender's body gives up the derived data this loader's
        clients computed on it: nobody here reads it again).  A pool
        compacted or offloaded since registration needs nothing, the
        codec hands back a fresh object, and neither does an adopted
        one.
        """
        pool = handle.pool
        if pool.borrowed:
            pool.borrowed = False
            lent = pool.expanded
            if lent is not None:
                pool.expanded = lent.copy()
                lent.derived.drop()

    def pin(self, handle: Handle) -> None:
        """Exempt a pool from eviction (mutating clients must pin)."""
        pool = handle.pool
        if not pool.pinned:
            pool.pinned = True
            if pool.state is PoolState.EXPANDED:
                self._expanded_add(pool, -1)

    def unpin(self, handle: Handle) -> None:
        pool = handle.pool
        if pool.pinned:
            pool.pinned = False
            if pool.state is PoolState.EXPANDED:
                self._expanded_add(pool, 1)
                self._note_use(pool)
                self._maybe_enforce()

    # -- Memory accounting ---------------------------------------------------------

    def _account(self, pool: Pool) -> None:
        self.accountant.set_usage(pool.kind, pool.name, pool.resident_bytes())
        if self.checked and pool.kind == KIND_IR and pool.expanded is not None:
            _verify_size(pool.expanded, self.phase)

    def reaccount(self, handle: Handle) -> None:
        """Re-measure a pool after its object was mutated (e.g. inlining)."""
        self._account(handle.pool)

    def current_bytes(self) -> int:
        return self.accountant.current

    # -- Policy ------------------------------------------------------------------------

    def effective_level(self) -> NaimLevel:
        return self.config.effective_level(self.accountant.current)

    def _expanded_add(self, pool: Pool, delta: int) -> None:
        if pool.kind == KIND_SYMTAB:
            self._expanded_symtab += delta
        else:
            self._expanded_ir += delta

    def _note_use(self, pool: Pool) -> None:
        """Record a use of an unpinned expanded pool in the LRU heap."""
        heapq.heappush(
            self._lru_heap, (pool.last_touch, pool.kind, pool.name)
        )
        if pool.last_touch > self._newest_touch:
            self._newest_touch = pool.last_touch

    def _maybe_enforce(self) -> None:
        """Run eviction only when the cache is over capacity (+ slack)."""
        expanded = self._expanded_ir + self._expanded_symtab
        if expanded > self.config.cache_pools + self._enforce_slack:
            self._enforce()

    def _enforce(self) -> None:
        """Apply the thresholded NAIM cache policy.

        Keeps the ``cache_pools`` most recently used expanded pools in
        memory; everything older is compacted (and offloaded at the
        OFFLOAD level).  Explicitly released (unload-pending) pools are
        evicted ahead of same-age peers.  Pools a client pinned, and the
        single most recently touched pool, are never evicted.

        Eviction pops the lazy heaps oldest-first, discarding stale
        entries (recorded touch no longer matches the pool's, pool no
        longer expanded, pool pinned or gone); entries skipped for
        reasons that can change later -- symtab pools below the
        ST_COMPACT level, the most recently touched pool -- are pushed
        back.  Each entry is popped at most once per push, so total
        eviction work is O(touches·log n) per compilation rather than
        O(enforcements · pools·log pools).
        """
        level = self.effective_level()
        if level is NaimLevel.OFF:
            return
        include_symtab = level >= NaimLevel.ST_COMPACT
        eligible = self._expanded_ir + (
            self._expanded_symtab if include_symtab else 0
        )
        excess = eligible - max(self.config.cache_pools, 1)
        if excess <= 0:
            return
        offload = level >= NaimLevel.OFFLOAD
        deferred: List[Tuple[List[Tuple[int, str, str]], Tuple[int, str, str]]]
        deferred = []
        for heap in (self._pending_heap, self._lru_heap):
            while excess > 0 and heap:
                entry = heapq.heappop(heap)
                touch, kind, name = entry
                pool = self._pools.get((kind, name))
                if (
                    pool is None
                    or pool.state is not PoolState.EXPANDED
                    or pool.pinned
                    or touch != pool.last_touch
                ):
                    continue  # stale entry: drop it
                if heap is self._pending_heap and not pool.unload_pending:
                    continue  # released, then re-touched
                if kind == KIND_SYMTAB and not include_symtab:
                    deferred.append((heap, entry))
                    continue
                if touch == self._newest_touch:
                    deferred.append((heap, entry))
                    continue
                self._compact_pool(pool, offload=offload)
                excess -= 1
        for heap, entry in deferred:
            heapq.heappush(heap, entry)

    def _compact_pool(self, pool: Pool, offload: bool) -> None:
        assert pool.state is PoolState.EXPANDED and pool.expanded is not None
        # Clean eviction: the repository already holds these bytes, so
        # the body is dropped without the codec.  Bytes that would stay
        # in memory (no offload) are the modeled footprint: encoded.
        clean = (
            offload and pool.kind == KIND_IR and pool.unchanged_since_fetch()
        )
        if clean:
            if self.checked:
                self._check_clean(pool)
            self.stats.clean_evictions += 1
        else:
            if pool.kind == KIND_IR:
                routine = pool.expanded
                routine.invalidate()  # derived data is never persisted
                data = compact_routine(routine, self.symtab)
            else:
                data = compact_symtab(pool.expanded, self.symtab)
            self.stats.compactions += 1
        pool.expanded = None
        pool.clean_at = None
        pool.borrowed = False
        pool.unload_pending = False
        self._expanded_add(pool, -1)
        if offload:
            if not clean:
                self.repository.store(pool.kind, pool.name, data)
                self.stats.offloads += 1
                self._update_repo_gauges()
            pool.compact_bytes = None
            pool.state = PoolState.OFFLOADED
        else:
            pool.compact_bytes = data
            pool.state = PoolState.COMPACT
        self._account(pool)

    def _check_clean(self, pool: Pool) -> None:
        """The checked-mode oracle of the clean rule: encode anyway."""
        stored = self.repository.fetch(pool.kind, pool.name)
        if compact_routine(pool.expanded, self.symtab) != bytes(stored):
            raise UnsignalledMutationError(pool.name, self.phase)

    # -- Introspection ---------------------------------------------------------------

    def pool_states(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for pool in self._pools.values():
            counts[pool.state.value] = counts.get(pool.state.value, 0) + 1
        return counts

    def pools(self) -> List[Pool]:
        return list(self._pools.values())

    def __repr__(self) -> str:
        return "<Loader %d pools, level=%s, %s>" % (
            len(self._pools),
            self.effective_level().name,
            self.stats,
        )
