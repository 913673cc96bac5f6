"""Modules: the unit of separate compilation."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .errors import SymbolError
from .routine import Routine
from .symbols import GlobalVar, ModuleSymbolTable


class Module:
    """One separately-compiled translation unit lowered to IL.

    A module owns its routines and its symbol table.  ``source_lines``
    is the line count of the originating source file; it drives the
    memory-model calibration and the "lines of code optimized" axes of
    the paper's figures.
    """

    def __init__(self, name: str, source_lines: int = 0) -> None:
        self.name = name
        self.routines: Dict[str, Routine] = {}
        self.symtab = ModuleSymbolTable(name)
        self._explicit_source_lines = source_lines

    # -- Construction ---------------------------------------------------------

    def add_routine(self, routine: Routine) -> Routine:
        if routine.name in self.routines:
            raise SymbolError(
                "duplicate routine %s in module %s" % (routine.name, self.name)
            )
        routine.module_name = self.name
        self.routines[routine.name] = routine
        self.symtab.add_routine(routine.name)
        return routine

    def define_global(
        self,
        name: str,
        size: int = 1,
        init: Optional[Iterable[int]] = None,
        exported: bool = True,
    ) -> GlobalVar:
        var = GlobalVar(
            name,
            size=size,
            init=tuple(init) if init is not None else None,
            defining_module=self.name,
            exported=exported,
        )
        return self.symtab.define_global(var)

    # -- Queries --------------------------------------------------------------

    @property
    def source_lines(self) -> int:
        if self._explicit_source_lines:
            return self._explicit_source_lines
        return sum(r.source_lines for r in self.routines.values())

    @source_lines.setter
    def source_lines(self, value: int) -> None:
        self._explicit_source_lines = value

    def routine_list(self) -> List[Routine]:
        """Routines in deterministic (insertion) order."""
        return list(self.routines.values())

    def instr_count(self) -> int:
        return sum(r.instr_count() for r in self.routines.values())

    def external_callees(self) -> List[str]:
        """Names called by this module but not defined in it."""
        defined = set(self.routines)
        seen: Dict[str, None] = {}
        for routine in self.routines.values():
            for callee in routine.callees():
                if callee not in defined:
                    seen.setdefault(callee)
        return list(seen)

    def copy(self) -> "Module":
        """Deep copy (the linker optimizes a copy so objects stay pristine)."""
        clone = Module(self.name, source_lines=self._explicit_source_lines)
        clone.symtab = self.symtab.copy()
        clone.routines = {
            name: routine.copy() for name, routine in self.routines.items()
        }
        for routine in clone.routines.values():
            routine.module_name = self.name
        return clone

    def view(self) -> "Module":
        """A module a link may restructure without touching this one.

        The routine dict and symbol table are the view's own (dead
        function elimination and cloning edit them); the :class:`Routine`
        bodies are shared, so whoever mutates one must copy it first.
        """
        clone = Module(self.name, source_lines=self._explicit_source_lines)
        clone.symtab = self.symtab.copy()
        clone.routines = dict(self.routines)
        return clone

    def __repr__(self) -> str:
        return "<Module %s (%d routines, %d lines)>" % (
            self.name,
            len(self.routines),
            self.source_lines,
        )
