"""Final link: symbol resolution, layout, relocation, image assembly."""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir.program import ENTRY_NAME
from ..ir.symbols import GlobalVar
from ..profiles.probes import ProbeTable
from ..vm.image import Executable, MachineRoutine, ProbeInfo, RoutineMeta
from ..vm.isa import MInstr, MOp
from .objects import LinkError, ObjectFile


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


def check_interfaces(objects: List[ObjectFile],
                     checked: bool = False) -> List[str]:
    """The link-time interface checker the paper advocates (§6.3).

    Compares every call site of the IL ``objects`` against the callee's
    declared parameter count, in object, routine and block order, and
    returns human-readable mismatch descriptions (empty = clean).  A
    callee no IL object defines is skipped: unresolved symbols are
    reported elsewhere.  Each object computes its sites and arities once
    (:meth:`ObjectFile.interface`), so a relink costs a dict lookup per
    site and walks no IL; ``checked`` walks each object again.
    """
    arity: Dict[str, int] = {}
    for obj in objects:
        arity.update(obj.interface(checked)[0])
    problems: List[str] = []
    for obj in objects:
        for caller, callee, nargs in obj.interface()[1]:
            expected = arity.get(callee)
            if expected is not None and expected != nargs:
                problems.append(
                    "%s calls %s with %d args (expects %d)"
                    % (caller, callee, nargs, expected)
                )
    return problems


def build_image(
    machine_routines: List[MachineRoutine],
    global_vars: List[GlobalVar],
    entry: str = ENTRY_NAME,
    layout_order: Optional[List[str]] = None,
    probe_table: Optional[ProbeTable] = None,
    checked: bool = False,
) -> Executable:
    """Assemble the final executable image.

    ``layout_order`` (from :mod:`repro.linker.clustering`) controls the
    code-address assignment; routines not mentioned go after the
    ordered ones, in input order.  ``machine_routines`` are read, never
    written: ``image.code`` holds their own ``MInstr`` objects except at
    :meth:`~repro.vm.image.MachineRoutine.reloc_sites`, where it holds
    relocated copies.  Those copies are a memo on the routine
    (``MachineRoutine.linked``) under the relocation environment they
    were made for, and the next image that places the routine in an
    equal environment shares them: nothing may edit ``image.code``.
    ``checked`` relocates a memoized routine again beside the memo.
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

    base_of: Dict[str, int] = {}
    address = len(stub)
    for name in order:
        base_of[name] = address
        routine = by_name[name]
        size = len(routine.instrs)
        meta = RoutineMeta(
            name, routine.n_params, routine.frame_size, address, size
        )
        image.routine_meta[name] = meta
        image.meta_by_addr[address] = meta
        address += size
    image.layout_order = list(order)

    # -- Relocation -------------------------------------------------------------------
    code: List[MInstr] = stub
    for name in order:
        code.extend(_linked(by_name[name], base_of, image, checked))
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


def _linked(
    routine: MachineRoutine,
    base_of: Dict[str, int],
    image: Executable,
    checked: bool,
) -> List[MInstr]:
    """``routine``'s instructions relocated at ``base_of[routine.name]``.

    Relocation reads the routine's base and, per symbolic site, the
    callee's base or the global's address (and, for LDX/STX, its size):
    that is the environment, the key of the routine's memo.  An equal
    environment relocates equally, so the copies the last link made for
    it are reused; any other one relocates afresh (and raises what
    relocation raises) and replaces them.
    """
    calls, data, sized = routine.reloc_symbols()
    env = (
        base_of[routine.name],
        *map(base_of.get, calls),
        *map(image.data_addr.get, data),
        *map(image.data_size.get, sized),
    )
    return routine.linked.get(env, _relocated, routine, base_of, image,
                              checked=checked)


def _relocated(
    routine: MachineRoutine, base_of: Dict[str, int], image: Executable
) -> List[MInstr]:
    """A new list of ``routine``'s instructions with a relocated copy at
    each relocation site."""
    name = routine.name
    base = base_of[name]
    instrs = list(routine.instrs)
    for index in routine.reloc_sites():
        instr = instrs[index].copy()
        _relocate(instr, base, base_of, image, name, base + index)
        instrs[index] = instr
    return instrs


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
