"""Dominator analysis (Cooper-Harvey-Kennedy iterative algorithm)."""

from __future__ import annotations

from typing import Dict, Optional

from ...ir.derived import derived_analysis
from ...ir.routine import Routine
from .cfg import reverse_postorder


@derived_analysis("idom", cfg_shaped=True)
def immediate_dominators(routine: Routine) -> Dict[str, Optional[str]]:
    """Map block label -> immediate dominator label (entry -> None).

    Unreachable blocks are absent from the result.
    """
    rpo = reverse_postorder(routine)
    index = {label: i for i, label in enumerate(rpo)}
    preds = routine.predecessors()
    entry = routine.entry.label
    idom: Dict[str, Optional[str]] = {entry: entry}

    def intersect(a: str, b: str) -> str:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]  # type: ignore[assignment]
            while index[b] > index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for label in rpo:
            if label == entry:
                continue
            candidates = [
                p for p in preds[label] if p in idom and p in index
            ]
            if not candidates:
                continue
            new_idom = candidates[0]
            for other in candidates[1:]:
                new_idom = intersect(new_idom, other)
            if idom.get(label) != new_idom:
                idom[label] = new_idom
                changed = True
    result = dict(idom)
    result[entry] = None
    return result


def dominates(routine: Routine, a: str, b: str) -> bool:
    """True when block ``a`` dominates block ``b``."""
    idom = immediate_dominators(routine)
    current: Optional[str] = b
    while current is not None:
        if current == a:
            return True
        current = idom.get(current)
    return False
