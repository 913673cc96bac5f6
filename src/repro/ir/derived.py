"""Derived-data cache (paper section 4.1).

HLO distinguishes three classes of data: *global* (always resident),
*transitory* (per-module/per-routine, relocatable) and *derived* (results
of analyses).  Early in HLO's development the authors adopted the
discipline that derived data is always **recomputed from scratch** rather
than kept incrementally up to date, so it can be freely discarded --
e.g. when a routine is compacted and unloaded -- and rebuilt on demand.

:class:`DerivedCache` enforces exactly that discipline: analyses register
a compute function, results are memoized and never updated in place.
Recomputing only scales if it happens when its input changed, so each
analysis declares, where it is registered, which of two classes its
result is in: *CFG-shaped* results read only the block list and the
terminators (``block_map``, ``preds``, ``rpo``, ``idom``, ``loops`` ...)
and survive :meth:`DerivedCache.invalidate_instrs`, what a rewrite of
straight-line instructions calls; the rest (``liveness``) do not.  Any
other mutation, and every NAIM unload, drops both (:meth:`invalidate`).

Because every mutator must call one of the two, the calls double as the
routine's *mutation signal*: :attr:`DerivedCache.mutations` counts
them, and the NAIM loader compares it with the count at decode time to
tell a body that was only read from one whose bytes may have changed
(docs/naim_internals.md, "Who encodes when").
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict

from .errors import IRError

#: key -> ``compute(routine)`` of every :func:`derived_analysis`; what
#: :meth:`DerivedCache.verify` recomputes.
_ANALYSES: Dict[str, Callable[[Any], Any]] = {}


def derived_analysis(key: str, cfg_shaped: bool):
    """Register ``compute(routine)`` as the derived result ``key`` of
    the given class; returns the memoizing accessor."""

    def register(compute: Callable[[Any], Any]) -> Callable[[Any], Any]:
        _ANALYSES[key] = compute

        @functools.wraps(compute)
        def cached(routine):
            cache = routine.derived
            try:
                return (cache._cfg if cfg_shaped else cache._instr)[key]
            except KeyError:
                return cache.get(key, lambda: compute(routine), cfg_shaped)

        return cached

    return register


class DerivedCache:
    """Memoized analysis results attached to a routine.

    Results are never updated in place; mutating the underlying IR must
    invalidate the class of results that read what was mutated.
    """

    __slots__ = ("_cfg", "_instr", "recompute_count", "invalidate_count",
                 "mutations", "labels")

    def __init__(self) -> None:
        self._cfg: Dict[str, Any] = {}
        self._instr: Dict[str, Any] = {}
        #: Number of analysis recomputations (observable for NAIM costing).
        self.recompute_count = 0
        #: Number of invalidations that dropped something.
        self.invalidate_count = 0
        #: Number of invalidation calls, whether or not anything was
        #: cached: the routine was (or may have been) mutated that often.
        self.mutations = 0
        #: The block labels in use, as :meth:`Routine.new_block` left
        #: them (None: not known).  Kept apart from the registered
        #: results, so it is neither sized nor verified; any mutation
        #: but an instruction rewrite drops it like the CFG-shaped ones.
        self.labels = None

    def get(
        self, key: str, compute: Callable[[], Any], cfg_shaped: bool = False
    ) -> Any:
        """Return the cached result for ``key``, computing it if absent."""
        results = self._cfg if cfg_shaped else self._instr
        if key not in results:
            results[key] = compute()
            self.recompute_count += 1
        return results[key]

    def invalidate(self) -> None:
        """Drop every derived result (on CFG mutation or unload)."""
        self.mutations += 1
        self.labels = None
        if self._cfg or self._instr:
            self.invalidate_count += 1
            self._cfg.clear()
            self._instr.clear()

    def drop(self) -> None:
        """Drop every derived result of a body that did not change (a
        link handing a borrowed body back): no mutation is signalled."""
        self.labels = None
        if self._cfg or self._instr:
            self.invalidate_count += 1
            self._cfg.clear()
            self._instr.clear()

    def invalidate_instrs(self) -> None:
        """Drop the results that read straight-line instructions (the
        terminators and the block list were left alone)."""
        self.mutations += 1
        if self._instr:
            self.invalidate_count += 1
            self._instr.clear()

    def verify(self, routine) -> None:
        """Recompute every retained registered result from scratch and
        compare (checked builds): a pass that kept a result it had made
        stale fails here instead of miscompiling."""
        kept = (self._cfg, self._instr, self.recompute_count)
        self._cfg, self._instr = {}, {}
        try:
            for key, value in {**kept[0], **kept[1]}.items():
                if key in _ANALYSES and _ANALYSES[key](routine) != value:
                    raise IRError(
                        "stale derived result %r on routine %s"
                        % (key, routine.name)
                    )
        finally:
            self._cfg, self._instr, self.recompute_count = kept

    def __contains__(self, key: str) -> bool:
        return key in self._cfg or key in self._instr

    def __len__(self) -> int:
        return len(self._cfg) + len(self._instr)
