"""The WPA plan: what the whole-program phase decided, and its replay.

The driver's phases 0-4.5 never touch an expanded routine body: every
cross-module decision -- dead-function elimination, IPCP seeds, cloning
candidates, the inline plan -- is computed by the transform modules
from the :class:`~repro.incr.summary.RoutineFacts` graph, and the body
mutations those decisions imply are recorded in a :class:`WpaPlan`.
The plan is *replayed* against real bodies at the start of phase 5
(serially, or inside each partition worker) through the transforms'
own mutation code (``apply_param_constants``, ``make_clone``,
``splice_call``).  One decision procedure plus a deterministic replay
is what makes images byte-identical at every hlo-jobs/backend/incremental
setting.

The payoff is the paper's Figure 4 claim pushed to its limit: WPA time
and peak modeled memory scale with the summary graph, so the
coordinator can run 10-50x larger programs without its memory moving.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..ir.instructions import Opcode
from .profile_view import ProfileView
from .transforms.clone import CloneOp, make_clone
from .transforms.inline import (
    InlineEngine,
    InlineStats,
    SpliceOp,
    _inject_bug,
    splice_call,
)
from .transforms.ipcp import apply_param_constants


class WpaPlan:
    """Deterministic record of every body mutation thin WPA decided.

    Replay order is fixed: all IPCP entry bindings, then clone
    creations interleaved with their retargets (a later clone's origin
    may already have been retargeted), then splices in global ordinal
    order (grouped by caller, callees bottom-up -- so a callee's body
    is always final before it is spliced upward).
    """

    def __init__(self) -> None:
        #: [(routine, [(param_index, value), ...])] in apply order.
        self.bindings: List[Tuple[str, List[Tuple[int, int]]]] = []
        self.clones: List[CloneOp] = []
        self.splices: List[SpliceOp] = []

    def is_empty(self) -> bool:
        return not (self.bindings or self.clones or self.splices)

    # -- Wire form (travels in the partition context blob) ---------------------

    def to_dict(self) -> dict:
        return {
            "bindings": [
                [name, [[i, v] for i, v in binds]]
                for name, binds in self.bindings
            ],
            "clones": [
                [op.clone, op.origin,
                 [[i, v] for i, v in op.bindings],
                 [[caller, label, index]
                  for caller, label, index in op.retargets]]
                for op in self.clones
            ],
            "splices": [
                [op.caller, op.callee, op.weight] for op in self.splices
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "WpaPlan":
        plan = WpaPlan()
        plan.bindings = [
            (name, [(int(i), int(v)) for i, v in binds])
            for name, binds in data.get("bindings", [])
        ]
        plan.clones = [
            CloneOp(clone, origin,
                    tuple((int(i), int(v)) for i, v in bindings),
                    [(caller, label, int(index))
                     for caller, label, index in retargets])
            for clone, origin, bindings, retargets in data.get("clones", [])
        ]
        plan.splices = [
            SpliceOp(caller, callee, int(weight))
            for caller, callee, weight in data.get("splices", [])
        ]
        return plan

    def import_closure(self) -> Callable[[str], Set[str]]:
        """Returns need(routine): the callee bodies its replay touches.

        A splice needs the callee's body *and* whatever that callee's
        own replay needs (its body must be final first); a clone needs
        its origin's body plus its own splice needs; retargets need
        nothing (they rewrite an instruction in place).
        """
        splice_needs: Dict[str, List[str]] = {}
        for op in self.splices:
            splice_needs.setdefault(op.caller, []).append(op.callee)
        clone_origin = {op.clone: op.origin for op in self.clones}
        memo: Dict[str, Set[str]] = {}

        def need(name: str) -> Set[str]:
            cached = memo.get(name)
            if cached is not None:
                return cached
            result: Set[str] = set()
            memo[name] = result  # cycle guard (recursion never splices)
            origin = clone_origin.get(name)
            if origin is not None:
                result.add(origin)
                result |= need(origin)
            for callee in splice_needs.get(name, ()):
                result.add(callee)
                result |= need(callee)
            return result

        return need

    def readers_closure(self, names) -> Set[str]:
        """``names`` and every routine whose replay reads one of them,
        transitively: the callers that splice a callee and the clones of
        an origin.  The routines whose :meth:`import_closure` meets
        ``names``, found by walking the plan's edges backwards from
        ``names`` instead of closing every routine forwards."""
        readers: Dict[str, List[str]] = {}
        for op in self.splices:
            readers.setdefault(op.callee, []).append(op.caller)
        for op in self.clones:
            readers.setdefault(op.origin, []).append(op.clone)
        closure: Set[str] = set()
        stack = list(names)
        while stack:
            name = stack.pop()
            if name not in closure:
                closure.add(name)
                stack.extend(readers.get(name, ()))
        return closure

    def replay_scope(self, routines) -> Set[str]:
        """The one replay-scope rule: the routines that will be compiled,
        closed under :meth:`import_closure`.

        Serial phase 5 replays over this set; a partition worker over
        its locals plus :meth:`imports_for` -- the same set, split into
        what it owns and what it only reads.
        """
        scope = set(routines)
        need = self.import_closure()
        for name in routines:
            scope |= need(name)
        return scope

    def imports_for(self, routines) -> List[str]:
        """Sorted import list for one partition's routine set."""
        return sorted(self.replay_scope(routines) - set(routines))


class WpaOutcome:
    """Everything the WPA decided: the plan plus the decisions that
    leave no body mutation (the dead-function removals per module, the
    published constant returns and read-only globals, the inliner's
    counters).  A link whose WPA inputs equal a stored outcome's applies
    it instead of deciding again."""

    __slots__ = ("plan", "removed", "const_returns", "readonly_globals",
                 "inline_stats")

    def __init__(self, plan: WpaPlan, removed: Dict[str, List[str]],
                 const_returns: Dict[str, int],
                 readonly_globals: Set[str],
                 inline_stats: InlineStats) -> None:
        self.plan = plan
        #: module -> routines dead-function elimination deleted.
        self.removed = removed
        self.const_returns = const_returns
        self.readonly_globals = readonly_globals
        self.inline_stats = inline_stats

    def to_dict(self) -> dict:
        return {
            "plan": self.plan.to_dict(),
            "removed": {
                module: list(names) for module, names in self.removed.items()
            },
            # Pairs, not an object: the publication order is kept.
            "const_returns": [
                [name, value] for name, value in self.const_returns.items()
            ],
            "readonly_globals": sorted(self.readonly_globals),
            "inline_stats": self.inline_stats.to_dict(),
        }

    @staticmethod
    def from_dict(data: dict) -> "WpaOutcome":
        return WpaOutcome(
            WpaPlan.from_dict(data["plan"]),
            {module: list(names) for module, names in data["removed"].items()},
            {name: int(value) for name, value in data["const_returns"]},
            set(data["readonly_globals"]),
            InlineStats.from_dict(data["inline_stats"]),
        )


# -- Replay --------------------------------------------------------------------


def replay_plan(
    plan: WpaPlan,
    scope: Set[str],
    loader,
    handles: Dict[str, object],
    views: Dict[str, ProfileView],
    options,
) -> None:
    """Apply the recorded mutations to the real bodies in ``scope``.

    ``handles`` maps routine name -> NAIM loader :class:`Handle` (a
    clone whose body does not exist yet has none); created clones are
    adopted into it.  ``scope`` is :meth:`WpaPlan.replay_scope` of what
    the caller will compile: serially every routine of a module whose
    codegen is not reused, in a partition worker its locals (the job
    carries the scope as locals plus import list).  Determinism: replay
    applied to any scope closed under the plan's import relation
    produces, for each routine in scope, the same body and view as a
    whole-program replay -- bindings and retargets are per-routine, and
    splices touch only the caller while reading a callee whose own
    replay (earlier in global order) has finished.

    The caller being spliced into is pinned so it is never evicted
    mid-splice, and every body is handed back to the loader as soon as
    its part is done.
    """

    def resolve(name):
        handle = handles.get(name)
        return handle.get() if handle is not None else None

    def unload(name):
        handle = handles.get(name)
        if handle is not None:
            handle.request_unload()

    def release(name):
        handle = handles[name]
        loader.unpin(handle)
        loader.reaccount(handle)
        handle.request_unload()

    # 1. IPCP entry bindings.
    for name, binds in plan.bindings:
        if name not in scope:
            continue
        routine = resolve(name)
        if routine is None:
            continue
        apply_param_constants(routine, binds)
        unload(name)

    # 2. Clones and their retargets, interleaved in decision order.
    for op in plan.clones:
        if op.clone in scope:
            origin = resolve(op.origin)
            if origin is not None:
                handles[op.clone] = loader.adopt_routine(
                    op.clone,
                    expanded=make_clone(origin, op.bindings, op.clone),
                )
                unload(op.origin)
        for caller_name, block_label, index in op.retargets:
            if caller_name not in scope:
                continue
            caller = resolve(caller_name)
            if caller is None:
                continue
            call = caller.block(block_label).instrs[index]
            if call.op is Opcode.CALL and call.sym == op.origin:
                call.sym = op.clone
                caller.invalidate()

    # 3. Splices in global ordinal order.  The order is grouped by
    # caller (the engine executes one caller's plan at a time), so the
    # caller is pinned across its run of consecutive splices.
    scannable: Dict[str, set] = {}
    current: Optional[str] = None
    caller_obj = None
    try:
        for ordinal, op in enumerate(plan.splices):
            if op.caller not in scope:
                continue
            if op.caller != current:
                if caller_obj is not None:
                    release(current)
                caller_obj = resolve(op.caller)
                current = op.caller
                if caller_obj is None:
                    continue
                loader.pin(handles[current])
                scannable[current] = {
                    block.label for block in caller_obj.blocks
                }
            if caller_obj is None:
                continue
            callee = resolve(op.callee)
            if callee is None:
                continue
            site = InlineEngine._find_site(
                caller_obj, op.callee, scannable[current]
            )
            if site is None:
                continue
            block_label, instr_index = site
            caller_view = views.get(op.caller)
            if caller_view is None:
                caller_view = ProfileView.static_estimate(caller_obj)
                views[op.caller] = caller_view
            cont_label = splice_call(
                caller_obj,
                block_label,
                instr_index,
                callee,
                caller_view=caller_view,
                callee_view=views.get(op.callee),
                site_weight=op.weight,
            )
            scannable[current].add(cont_label)
            if (
                options.inject_inline_bug_after is not None
                and options.inject_inline_bug_after == ordinal + 1
            ):
                _inject_bug(caller_obj, cont_label)
            unload(op.callee)
    finally:
        if caller_obj is not None:
            release(current)
