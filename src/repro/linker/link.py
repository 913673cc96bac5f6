"""Final link: symbol resolution, layout, relocation, image assembly."""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir.program import ENTRY_NAME, Program
from ..ir.symbols import GlobalVar
from ..profiles.probes import ProbeTable
from ..vm.image import Executable, MachineRoutine, ProbeInfo, RoutineMeta
from ..vm.isa import MInstr, MOp
from .objects import LinkError


def check_duplicate_symbols(
    machine_routines: List[MachineRoutine],
    global_vars: List[GlobalVar],
) -> None:
    """Reject multiply-defined routines or globals (LinkError)."""
    seen_routines: Dict[str, str] = {}
    for routine in machine_routines:
        prior = seen_routines.get(routine.name)
        if prior is not None:
            raise LinkError(
                "duplicate routine %s (modules %s and %s)"
                % (routine.name, prior, routine.source_module)
            )
        seen_routines[routine.name] = routine.source_module
    seen_globals: Dict[str, str] = {}
    for var in global_vars:
        prior = seen_globals.get(var.name)
        if prior is not None:
            raise LinkError(
                "duplicate global %s (modules %s and %s)"
                % (var.name, prior, var.defining_module)
            )
        seen_globals[var.name] = var.defining_module


def check_interfaces(program: Program) -> List[str]:
    """The link-time interface checker the paper advocates (§6.3).

    Compares every IL call site's argument count against the callee's
    declared parameter count.  Returns human-readable mismatch
    descriptions (empty = clean).
    """
    problems: List[str] = []
    table = program.symtab
    for module in program.module_list():
        for routine in module.routine_list():
            for block in routine.blocks:
                for _, instr in block.calls():
                    callee_name = instr.sym
                    if not table.has_routine(callee_name):
                        continue  # unresolved symbols reported elsewhere
                    callee = program.routine(callee_name)
                    if len(instr.args) != callee.n_params:
                        problems.append(
                            "%s calls %s with %d args (expects %d)"
                            % (
                                routine.name,
                                callee_name,
                                len(instr.args),
                                callee.n_params,
                            )
                        )
    return problems


def build_image(
    machine_routines: List[MachineRoutine],
    global_vars: List[GlobalVar],
    entry: str = ENTRY_NAME,
    layout_order: Optional[List[str]] = None,
    probe_table: Optional[ProbeTable] = None,
) -> Executable:
    """Assemble the final executable image.

    ``layout_order`` (from :mod:`repro.linker.clustering`) controls the
    code-address assignment; routines not mentioned go after the
    ordered ones, in input order.  ``machine_routines`` are read, never
    written: ``image.code`` holds their own ``MInstr`` objects except at
    :meth:`~repro.vm.image.MachineRoutine.reloc_sites`, where it holds
    relocated copies.
    """
    check_duplicate_symbols(machine_routines, global_vars)
    by_name = {routine.name: routine for routine in machine_routines}
    if entry not in by_name:
        raise LinkError("undefined entry routine %r" % entry)

    image = Executable()

    # -- Data segment ---------------------------------------------------------
    address = 0
    for var in global_vars:
        image.data_addr[var.name] = address
        image.data_size[var.name] = var.size
        image.data_init.extend(var.init)
        address += var.size

    # -- Code order ---------------------------------------------------------------
    order: List[str] = []
    seen = set()
    if layout_order:
        for name in layout_order:
            if name in by_name and name not in seen:
                order.append(name)
                seen.add(name)
    for routine in machine_routines:
        if routine.name not in seen:
            order.append(routine.name)
            seen.add(routine.name)

    # -- Startup stub: call entry, halt. -----------------------------------------------
    stub = [MInstr(MOp.CALL, sym=entry), MInstr(MOp.HALT)]
    image.entry_addr = 0
    code: List[MInstr] = list(stub)

    # Machine routines are immutable and outlive the link (resident in
    # the incremental state, or part of a code object): the image
    # shares their instructions and owns only what relocation rewrites.
    base_of: Dict[str, int] = {}
    for name in order:
        base_of[name] = len(code)
        routine = by_name[name]
        meta = RoutineMeta(
            name,
            routine.n_params,
            routine.frame_size,
            base_of[name],
            len(routine.instrs),
        )
        image.routine_meta[name] = meta
        image.meta_by_addr[meta.addr] = meta
        code.extend(routine.instrs)
    image.layout_order = list(order)

    # -- Relocation -------------------------------------------------------------------
    for name in order:
        base = base_of[name]
        routine = by_name[name]
        instrs = routine.instrs
        for index in routine.reloc_sites():
            instr = instrs[index].copy()
            _relocate(instr, base, base_of, image, name, base + index)
            code[base + index] = instr
    # Relocate the startup stub's call.
    _relocate(code[0], 0, base_of, image, "<stub>", 0)

    image.code = code

    # -- Probes -----------------------------------------------------------------------
    if probe_table is not None:
        image.probes = [
            ProbeInfo(p.probe_id, p.routine, p.kind, p.key)
            for p in probe_table.probes
        ]
    return image


def _relocate(
    instr: MInstr,
    base: int,
    base_of: Dict[str, int],
    image: Executable,
    routine_name: str,
    offset: int,
) -> None:
    """Resolve one :data:`~repro.vm.isa.RELOCATED_OPS` instruction in
    place (the caller owns ``instr``)."""
    op = instr.op
    if op in (MOp.BT, MOp.BF, MOp.J):
        if instr.imm is None:
            raise LinkError(
                "unresolved branch in %s at %d" % (routine_name, offset)
            )
        instr.imm += base
    elif op is MOp.CALL:
        if instr.sym is None:
            raise LinkError("call without symbol in %s" % routine_name)
        target = base_of.get(instr.sym)
        if target is None:
            raise LinkError(
                "unresolved routine %s referenced by %s"
                % (instr.sym, routine_name)
            )
        instr.imm = target
        instr.sym = None
    elif op in (MOp.LDG, MOp.STG, MOp.LDX, MOp.STX):
        if instr.sym is None:
            raise LinkError("memory op without symbol in %s" % routine_name)
        addr = image.data_addr.get(instr.sym)
        if addr is None:
            raise LinkError(
                "unresolved global %s referenced by %s"
                % (instr.sym, routine_name)
            )
        if op in (MOp.LDX, MOp.STX):
            instr.imm2 = image.data_size[instr.sym]
        instr.imm = addr
        instr.sym = None
