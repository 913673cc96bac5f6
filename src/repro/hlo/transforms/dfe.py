"""Dead-function elimination (link-time, whole program).

With every module visible, routines unreachable from ``main`` through
the call graph can be deleted outright -- dropping their pools from the
loader and their code from the final image.  Reachability is decided
on the summary call edges of :class:`~repro.incr.summary.RoutineFacts`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ...incr.summary import RoutineFacts
from ...ir.program import ENTRY_NAME, Program


def reachable_routines(
    facts_by_name: Dict[str, RoutineFacts], roots=None
) -> Optional[Set[str]]:
    """Routine names reachable from the roots (default: ``main``).

    Returns None when there is nothing to root the walk at: a library
    (no entry routine), where everything is kept.
    """
    if roots is None:
        roots = [ENTRY_NAME]
    stack = [name for name in roots if name in facts_by_name]
    if not stack:
        return None
    seen: Set[str] = set(stack)
    while stack:
        for callee in facts_by_name[stack.pop()].callees():
            if callee in facts_by_name and callee not in seen:
                seen.add(callee)
                stack.append(callee)
    return seen


def eliminate_dead_functions(
    program: Program, keep: Set[str], removal_log=None
) -> List[str]:
    """Delete every routine outside ``keep``; returns the removed names.

    ``removal_log`` (a dict) receives module -> removed names, which
    the incremental engine records as dead-import elisions.
    """
    removed: List[str] = []
    for module in program.module_list():
        dead = [name for name in module.routines if name not in keep]
        for name in dead:
            del module.routines[name]
            module.symtab.routine_names.remove(name)
            removed.append(name)
        if dead and removal_log is not None:
            removal_log[module.name] = dead
    if removed:
        program.invalidate()
    return removed
