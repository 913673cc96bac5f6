"""Interprocedural mod/ref analysis of global variables.

For every routine we compute the sets of globals it may read (*ref*)
and write (*mod*), both directly and transitively through calls.  This
is the "information about global or module private variable usage"
the paper says must be gathered from *all* routines in the CMO set,
even ones not selected for optimization -- which is why selective HLO
still scans everything once (§5).

Unknown callees (outside the analyzed set) are treated as writing and
reading everything (``unknown = True``), keeping the analysis sound
under separate compilation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from ...ir.callgraph import strongly_connected_components
from ...ir.instructions import Opcode
from ...ir.routine import Routine


class ModRefInfo:
    """Per-routine global usage facts."""

    __slots__ = ("mod", "ref", "unknown")

    def __init__(self) -> None:
        #: Globals possibly written.
        self.mod: Set[str] = set()
        #: Globals possibly read.
        self.ref: Set[str] = set()
        #: True when effects cannot be bounded (unknown callee).
        self.unknown = False

    def writes(self, sym: str) -> bool:
        return self.unknown or sym in self.mod

    def reads(self, sym: str) -> bool:
        return self.unknown or sym in self.ref

    def is_pure(self) -> bool:
        """No global writes anywhere in the call tree."""
        return not self.unknown and not self.mod

    def __repr__(self) -> str:
        if self.unknown:
            return "<ModRef unknown>"
        return "<ModRef mod=%d ref=%d>" % (len(self.mod), len(self.ref))


def direct_modref(routine: Routine) -> ModRefInfo:
    """Globals touched by the routine's own instructions."""
    info = ModRefInfo()
    for _, _, instr in routine.iter_instrs():
        if instr.op in (Opcode.LOADG, Opcode.LOADE):
            info.ref.add(instr.sym)
        elif instr.op in (Opcode.STOREG, Opcode.STOREE):
            info.mod.add(instr.sym)
    return info


class ModRefAnalysis:
    """Whole-program mod/ref: the least fixed point over the call graph,
    solved component by component on its condensation."""

    def __init__(self) -> None:
        self.info: Dict[str, ModRefInfo] = {}

    @staticmethod
    def analyze(routines: Iterable[Routine]) -> "ModRefAnalysis":
        direct: Dict[str, ModRefInfo] = {}
        callees: Dict[str, List[str]] = {}
        for routine in routines:
            direct[routine.name] = direct_modref(routine)
            callees[routine.name] = routine.callees()
        return ModRefAnalysis.from_direct(direct, callees)

    @staticmethod
    def from_direct(
        direct: Dict[str, ModRefInfo], callees: Dict[str, List[str]]
    ) -> "ModRefAnalysis":
        """Fixed point from pre-collected direct facts.

        The NAIM driver uses this form: direct facts are gathered one
        routine at a time (touch, scan, unload) so the whole program is
        never expanded at once.
        """
        solved: Dict[str, ModRefInfo] = {}
        edges = {name: callees.get(name, ()) for name in direct}
        # Callees first, so every callee outside the component being
        # solved already holds its final answer: one visit per
        # component reaches the least fixed point.
        for component in strongly_connected_components(edges):
            members = set(component)
            mod: Set[str] = set()
            ref: Set[str] = set()
            unknown = False
            for name in component:
                info = direct[name]
                mod |= info.mod
                ref |= info.ref
                unknown = unknown or info.unknown
                for callee in edges[name]:
                    if callee in members:
                        continue
                    callee_info = solved.get(callee)
                    if callee_info is None or callee_info.unknown:
                        unknown = True
                    else:
                        mod |= callee_info.mod
                        ref |= callee_info.ref
            for name in component:
                info = direct[name]
                merged = ModRefInfo()
                merged.unknown = unknown
                # Nothing reads the sets of an unbounded routine; it
                # keeps its own direct ones, whatever the visit order.
                merged.mod = set(info.mod if unknown else mod)
                merged.ref = set(info.ref if unknown else ref)
                solved[name] = merged
        analysis = ModRefAnalysis()
        analysis.info = {name: solved[name] for name in direct}
        return analysis

    # -- Queries ------------------------------------------------------------

    def for_routine(self, name: str) -> ModRefInfo:
        info = self.info.get(name)
        if info is None:
            info = ModRefInfo()
            info.unknown = True
        return info

    def call_may_write(self, callee: str, sym: str) -> bool:
        return self.for_routine(callee).writes(sym)

    def never_written_globals(self, all_globals: Iterable[str]) -> Set[str]:
        """Globals no analyzed routine ever writes (promotable to consts).

        Returns the empty set when any routine has unknown effects.
        """
        written: Set[str] = set()
        for info in self.info.values():
            if info.unknown:
                return set()
            written |= info.mod
        return {sym for sym in all_globals if sym not in written}

    def pure_routines(self) -> Set[str]:
        return {name for name, info in self.info.items() if info.is_pure()}
