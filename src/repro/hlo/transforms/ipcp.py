"""Interprocedural constant propagation (closed-world, link-time).

Three whole-program facts are computed and published into the
:class:`OptContext` for the scalar passes to exploit:

* **read-only globals**: scalars no routine in the CMO set ever writes
  fold to their static initializers (requires mod/ref analysis with no
  unknown callees);
* **constant parameters**: when every call site of a routine passes the
  same literal constant for a parameter, the constant is materialized
  at the routine entry (valid because the linker sees every caller --
  the paper's whole-program premise; ``main`` is exempt since the OS
  calls it);
* **constant returns**: routines that provably return one literal value
  are recorded so callers can fold calls to pure ones.

The decisions are made over :class:`~repro.incr.summary.RoutineFacts`;
the entry bindings they imply are recorded on the WPA plan and applied
to the real bodies by :func:`apply_param_constants` at replay.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ...incr.summary import RoutineFacts, apply_entry_bindings
from ...ir.instructions import Instr, Opcode
from ...ir.program import ENTRY_NAME
from ...ir.routine import Routine
from ..passes import OptContext

#: Lattice marker for "conflicting values observed".
_CONFLICT = object()


def apply_param_constants(
    routine: Routine, bindings: Sequence[Tuple[int, int]]
) -> None:
    """Materialize ``(param_index, value)`` bindings at the routine entry.

    The one place CONSTs are bound at an entry: IPCP replay and clone
    creation both come through here, and
    :func:`~repro.incr.summary.apply_entry_bindings` is its image on
    facts.
    """
    entry = routine.entry
    for offset, (param_index, value) in enumerate(bindings):
        entry.instrs.insert(
            offset, Instr(Opcode.CONST, dst=param_index, imm=value)
        )
    routine.invalidate()


def constant_return_value(facts: RoutineFacts) -> Optional[int]:
    """The single literal this routine always returns, if provable.

    Conservative: each RET must return a register set by an in-block
    CONST (or return nothing, which is the literal 0).
    """
    result: Optional[int] = None
    found_any = False
    for ret in facts.rets:
        found_any = True
        value = 0 if ret.reg is None else ret.value
        if value is None:
            return None
        if result is None:
            result = value
        elif result != value:
            return None
    return result if found_any else None


def gather_param_constants(
    routine_names: Iterable[str],
    facts_by_name: Dict[str, RoutineFacts],
) -> Dict[str, List[Optional[int]]]:
    """Map routine name -> per-parameter constant (None = not constant).

    A parameter is constant when *every* call site passes the same
    literal (a CONST definition visible in the site's own block).
    """
    slots_by: Dict[str, list] = {}
    for name in routine_names:
        caller = facts_by_name.get(name)
        if caller is None:
            continue
        for site in caller.sites:
            callee = facts_by_name.get(site.callee)
            if callee is None:
                continue
            slots = slots_by.setdefault(site.callee,
                                        [None] * callee.n_params)
            for param_index, (_reg, observed, _has_def) in enumerate(
                    site.args):
                if param_index >= len(slots):
                    continue
                current = slots[param_index]
                if observed is None:
                    slots[param_index] = _CONFLICT
                elif current is None:
                    slots[param_index] = observed
                elif current is not _CONFLICT and current != observed:
                    slots[param_index] = _CONFLICT
    return {
        name: [v if isinstance(v, int) else None for v in slots]
        for name, slots in slots_by.items()
    }


def apply_param_bindings(
    ctx: OptContext,
    facts_by_name: Dict[str, RoutineFacts],
    bindings: Sequence[Tuple[str, List[Tuple[int, int]]]],
    plan,
) -> Dict[str, int]:
    """Record decided entry bindings on ``plan`` and mutate the facts
    the way :func:`apply_param_constants` will mutate the bodies.
    Returns {routine_name: n params bound}."""
    bound: Dict[str, int] = {}
    for name, binds in bindings:
        bound[name] = len(binds)
        ctx.stats.bump("ipcp_params", len(binds))
        plan.bindings.append((name, binds))
        apply_entry_bindings(facts_by_name[name], binds)
    return bound


def publish_interprocedural_facts(
    ctx: OptContext,
    routine_names: List[str],
    facts_by_name: Dict[str, RoutineFacts],
    all_global_names: Iterable[str],
    plan,
    externally_callable: "frozenset[str]" = frozenset(),
    externally_visible_globals: "frozenset[str]" = frozenset(),
) -> Dict[str, int]:
    """Fill ctx.readonly_globals / ctx.const_returns; bind const params.

    Entry bindings are appended to ``plan.bindings`` and the facts are
    mutated the way :func:`apply_param_constants` will mutate the
    bodies.  Under *coarse selectivity* not every module is in the CMO
    set, so facts that depend on seeing every caller/writer are
    suppressed for ``externally_callable`` routines and
    ``externally_visible_globals`` symbols (referenced by non-CMO
    objects).  Returns {routine_name: n params bound}.
    """
    if not ctx.options.ipcp_enabled:
        return {}

    if ctx.modref is not None:
        ctx.readonly_globals = (
            ctx.modref.never_written_globals(all_global_names)
            - set(externally_visible_globals)
        )

    param_facts = gather_param_constants(routine_names, facts_by_name)
    bindings: List[Tuple[str, List[Tuple[int, int]]]] = []
    for name in routine_names:
        if name == ENTRY_NAME or name in externally_callable:
            continue
        constants = param_facts.get(name)
        facts = facts_by_name.get(name)
        if not constants or facts is None:
            continue
        binds = [
            (index, value)
            for index, value in enumerate(constants[:facts.n_params])
            if value is not None
        ]
        if binds:
            bindings.append((name, binds))
    bound = apply_param_bindings(ctx, facts_by_name, bindings, plan)

    # Constant returns, over the post-binding facts.
    for name in routine_names:
        facts = facts_by_name.get(name)
        if facts is None:
            continue
        value = constant_return_value(facts)
        if value is not None:
            ctx.const_returns[name] = value
    return bound
