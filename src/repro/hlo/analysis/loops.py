"""Natural-loop detection from back edges and dominators."""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ...ir.derived import derived_analysis
from ...ir.routine import Routine
from .cfg import reachable_labels
from .dominators import dominates


class Loop:
    """One natural loop: header plus body block labels."""

    __slots__ = ("header", "body", "back_edges")

    def __init__(self, header: str) -> None:
        self.header = header
        #: All labels in the loop, including the header.
        self.body: Set[str] = {header}
        #: (latch, header) edges forming the loop.
        self.back_edges: List[Tuple[str, str]] = []

    def depth_key(self) -> Tuple[int, str]:
        return (len(self.body), self.header)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Loop) and (
            (self.header, self.body, self.back_edges)
            == (other.header, other.body, other.back_edges)
        )

    def __repr__(self) -> str:
        return "<Loop header=%s blocks=%d>" % (self.header, len(self.body))


@derived_analysis("loops", cfg_shaped=True)
def find_loops(routine: Routine) -> List[Loop]:
    """All natural loops, merged by shared header, cached as derived data."""
    reachable = reachable_labels(routine)
    preds = routine.predecessors()
    loops: Dict[str, Loop] = {}
    for block in routine.blocks:
        if block.label not in reachable:
            continue
        for succ in block.successors():
            if succ in reachable and dominates(routine, succ, block.label):
                loop = loops.setdefault(succ, Loop(succ))
                loop.back_edges.append((block.label, succ))
                # Collect the loop body: nodes reaching the latch
                # without passing through the header.
                stack = [block.label]
                while stack:
                    label = stack.pop()
                    if label in loop.body:
                        continue
                    loop.body.add(label)
                    stack.extend(
                        p for p in preds[label] if p in reachable
                    )
    return sorted(loops.values(), key=Loop.depth_key)


@derived_analysis("loop_depths", cfg_shaped=True)
def loop_depths(routine: Routine) -> Dict[str, int]:
    """Map block label -> loop nesting depth (0 outside any loop).

    Static profile estimation uses this when no dynamic profile exists.
    """
    depths = {block.label: 0 for block in routine.blocks}
    for loop in find_loops(routine):
        for label in loop.body:
            depths[label] += 1
    return depths
