"""CFG utilities: reachability, ordering, edge queries.

All results are *derived data* -- computed on demand, cached in the
routine's :class:`DerivedCache`, and recomputed from scratch after any
mutation of the block list or a terminator (paper §4.1); they read
nothing else, so instruction-only rewrites keep them.
"""

from __future__ import annotations

from typing import List, Set

from ...ir.derived import derived_analysis
from ...ir.routine import Routine


@derived_analysis("reachable", cfg_shaped=True)
def reachable_labels(routine: Routine) -> Set[str]:
    """Labels of blocks reachable from the entry block."""
    return set(reverse_postorder(routine))


@derived_analysis("rpo", cfg_shaped=True)
def reverse_postorder(routine: Routine) -> List[str]:
    """Block labels in reverse postorder from the entry (forward analyses)."""
    visited: Set[str] = set()
    postorder: List[str] = []
    # Iterative DFS with explicit successor iterators.
    stack = [(routine.entry.label, iter(routine.entry.successors()))]
    visited.add(routine.entry.label)
    while stack:
        label, successor_iter = stack[-1]
        advanced = False
        for succ in successor_iter:
            if succ not in visited:
                visited.add(succ)
                stack.append((succ, iter(routine.block(succ).successors())))
                advanced = True
                break
        if not advanced:
            stack.pop()
            postorder.append(label)
    postorder.reverse()
    return postorder
