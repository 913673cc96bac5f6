"""Executable images: fully linked machine code plus a data segment."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..memo import Memo
from .isa import RELOCATED_OPS, MInstr, MOp

_CALL, _LDG, _STG, _LDX, _STX = MOp.CALL, MOp.LDG, MOp.STG, MOp.LDX, MOp.STX


def _instr_fields(instrs: List[MInstr]) -> Dict[str, tuple]:
    return {
        "instr %d" % index: (instr.op, instr.subop, instr.rd, instr.rs1,
                             instr.rs2, instr.imm, instr.imm2, instr.sym,
                             instr.target)
        for index, instr in enumerate(instrs)
    }


class MachineRoutine:
    """One routine's machine code as emitted by LLO (pre-link).

    Branch targets are already resolved to *routine-local* instruction
    offsets (stored in ``imm``); calls and global references are still
    symbolic (``sym``).  ``frame_size`` counts i64 frame slots: the
    first ``n_params`` slots hold incoming arguments, the rest are
    spill slots.

    Immutable once emitted or decoded: the incremental state keeps a
    routine resident across links and every image built from it shares
    its ``MInstr`` objects, so nothing may edit ``instrs`` or an
    instruction in it afterwards.

    ``linked`` is the linker's :class:`~repro.memo.Memo`, not part of
    the routine: the instruction list the last link that placed it
    relocated, under that link's relocation environment (see
    :func:`repro.linker.link.build_image`).
    """

    __slots__ = ("name", "instrs", "n_params", "frame_size", "source_module",
                 "_reloc_sites", "_reloc_symbols", "linked")

    def __init__(
        self,
        name: str,
        instrs: List[MInstr],
        n_params: int,
        frame_size: int,
        source_module: str = "",
    ) -> None:
        self.name = name
        self.instrs = instrs
        self.n_params = n_params
        self.frame_size = frame_size
        self.source_module = source_module
        self._reloc_sites: Optional[Tuple[int, ...]] = None
        self._reloc_symbols: Optional[Tuple[Tuple[str, ...], ...]] = None
        self.linked = Memo("relocated code " + name, _instr_fields)

    def reloc_sites(self) -> Tuple[int, ...]:
        """Indices of the instructions the linker rewrites
        (:data:`~repro.vm.isa.RELOCATED_OPS`), scanned once."""
        if self._reloc_sites is None:
            self._scan_relocations()
        return self._reloc_sites

    def reloc_symbols(self) -> Tuple[Tuple[str, ...], ...]:
        """``(callees, globals, arrays)``: the symbols of the relocation
        sites that call, address a global, and bound an array access
        (LDX/STX also take the array's size), in site order, scanned
        once."""
        if self._reloc_symbols is None:
            self._scan_relocations()
        return self._reloc_symbols

    def _scan_relocations(self) -> None:
        # Members are compared by identity: ``Enum.__hash__`` is a
        # Python-level call per lookup.
        relocated = RELOCATED_OPS
        sites, calls, data, sized = [], [], [], []
        for index, instr in enumerate(self.instrs):
            op = instr.op
            if op in relocated:
                sites.append(index)
                if op is _CALL:
                    calls.append(instr.sym)
                elif op is _LDX or op is _STX:
                    data.append(instr.sym)
                    sized.append(instr.sym)
                elif op is _LDG or op is _STG:
                    data.append(instr.sym)
        self._reloc_sites = tuple(sites)
        self._reloc_symbols = (tuple(calls), tuple(data), tuple(sized))

    def __len__(self) -> int:
        return len(self.instrs)

    def __repr__(self) -> str:
        return "<MachineRoutine %s (%d instrs, frame=%d)>" % (
            self.name,
            len(self.instrs),
            self.frame_size,
        )


class RoutineMeta:
    """Per-routine metadata the machine needs at call time."""

    __slots__ = ("name", "n_params", "frame_size", "addr", "size")

    def __init__(
        self, name: str, n_params: int, frame_size: int, addr: int, size: int
    ) -> None:
        self.name = name
        self.n_params = n_params
        self.frame_size = frame_size
        self.addr = addr
        self.size = size


class ProbeInfo:
    """Where an instrumentation probe lives (for profile correlation)."""

    __slots__ = ("probe_id", "routine", "kind", "key")

    def __init__(self, probe_id: int, routine: str, kind: str, key: Tuple) -> None:
        self.probe_id = probe_id
        self.routine = routine
        #: "edge" or "call" or "entry".
        self.kind = kind
        self.key = key


class Executable:
    """A linked program image.

    ``code`` is the flat instruction array with every operand resolved
    to absolute values; ``data_init`` the initial data segment; address
    maps support diagnostics and the I-cache locality model (layout
    order *is* the address assignment).
    """

    def __init__(self) -> None:
        self.code: List[MInstr] = []
        self.data_init: List[int] = []
        self.entry_addr = 0
        self.routine_meta: Dict[str, RoutineMeta] = {}
        self.meta_by_addr: Dict[int, RoutineMeta] = {}
        self.data_addr: Dict[str, int] = {}
        self.data_size: Dict[str, int] = {}
        #: Probe bookkeeping (instrumented images only).
        self.probes: List[ProbeInfo] = []
        #: Human-readable link order, for layout diagnostics.
        self.layout_order: List[str] = []

    def routine_addr(self, name: str) -> int:
        return self.routine_meta[name].addr

    def code_size(self) -> int:
        return len(self.code)

    def global_value(self, data: List[int], name: str) -> int:
        """Read a global scalar out of a (post-run) data segment."""
        return data[self.data_addr[name]]

    def global_array(self, data: List[int], name: str) -> List[int]:
        base = self.data_addr[name]
        return data[base : base + self.data_size[name]]

    def find_routine_containing(self, addr: int) -> Optional[RoutineMeta]:
        for meta in self.routine_meta.values():
            if meta.addr <= addr < meta.addr + meta.size:
                return meta
        return None

    def __repr__(self) -> str:
        return "<Executable (%d instrs, %d data words, %d routines)>" % (
            len(self.code),
            len(self.data_init),
            len(self.routine_meta),
        )
