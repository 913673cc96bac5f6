"""Object files (paper §3, §6.1).

Two kinds exist, exactly as in the HP-UX scheme:

* **code objects** -- machine routines, produced by +O0/+O1/+O2
  compiles; the linker only relocates them;
* **IL ("fat") objects** -- the frontend "dumps the IL directly to
  object files"; at +O4 the linker routes these to HLO.

Keeping all persistent information in object files (rather than a
compiler database) is what makes the framework compatible with make
(§6.1): the build system sees ordinary source -> object dependencies,
and program-wide information is rebuilt at link/optimization time.

Object files serialize to a self-contained binary form (own string
table; no global PIDs -- a private symbol table scopes the encoding).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from ..ir.module import Module
from ..ir.routine import Routine
from ..ir.symbols import GlobalVar, ProgramSymbolTable
from ..memo import Memo
from ..naim.compaction import (
    OPCODE_WIRE_INDEX,
    OPCODE_WIRE_LIST,
    CompactionError,
    Reader,
    Writer,
    _pack_varints,
    _string_at,
    _uv,
    _uv_cont,
    compact_routine,
    uncompact_routine,
)
from ..vm.image import Executable, MachineRoutine, RoutineMeta
from ..vm.isa import MInstr, MOp

_OBJ_VERSION = 1
# ALU sub-opcodes reuse the IL wire numbering (OPCODE_WIRE_*).
_MOP_LIST = list(MOp)
# Wire fields keyed by the members' string values: a str caches its
# hash, ``Enum.__hash__`` is a Python-level call per instruction.
_MOP_FIELD = {op.value: i for i, op in enumerate(_MOP_LIST)}
_SUBOP_FIELD = {op.value: i + 1 for op, i in OPCODE_WIRE_INDEX.items()}

KIND_CODE = "code"
KIND_IL = "il"


def _summarize(module: Module):
    from ..incr.summary import ModuleSummary  # incr imports us

    return ModuleSummary.from_module(module)


def _summary_fields(summary) -> Dict[str, str]:
    return {"fingerprint": summary.fingerprint()}


def _walk_interface(module: Module):
    arities: Dict[str, int] = {}
    sites: List[Tuple[str, str, int]] = []
    for routine in module.routine_list():
        name = routine.name
        arities[name] = routine.n_params
        for block in routine.blocks:
            for _, instr in block.calls():
                sites.append((name, instr.sym, len(instr.args)))
    return arities, tuple(sites)


class LinkError(Exception):
    """Raised on unresolved symbols, duplicates or format errors."""


class ObjectFile:
    """One compiled module, either machine code or fat IL."""

    def __init__(
        self,
        module_name: str,
        kind: str,
        machine_routines: Optional[List[MachineRoutine]] = None,
        il_module: Optional[Module] = None,
        globals_list: Optional[List[GlobalVar]] = None,
        referenced_routines: Optional[List[str]] = None,
        referenced_globals: Optional[List[str]] = None,
        source_fingerprint: str = "",
        source_lines: int = 0,
        opt_summary: str = "",
    ) -> None:
        if kind not in (KIND_CODE, KIND_IL):
            raise LinkError("bad object kind %r" % kind)
        self.module_name = module_name
        self.kind = kind
        self.machine_routines = machine_routines or []
        self.il_module = il_module
        #: Globals this module defines (code objects carry them here;
        #: IL objects carry them inside il_module's symtab).
        self.globals_list = globals_list or []
        self.referenced_routines = referenced_routines or []
        self.referenced_globals = referenced_globals or []
        #: Content hash of the source (drives incremental rebuilds).
        self.source_fingerprint = source_fingerprint
        self.source_lines = source_lines
        #: Human-readable note of how this object was compiled.
        self.opt_summary = opt_summary
        # Memos under ``il_module``, which links only borrow.
        self._summary = Memo("object summary " + module_name,
                             _summary_fields)
        self._interface = Memo("object interface " + module_name)

    # -- Symbol queries -----------------------------------------------------------

    def defined_routines(self) -> List[str]:
        if self.kind == KIND_IL:
            assert self.il_module is not None
            return list(self.il_module.routines)
        return [routine.name for routine in self.machine_routines]

    def defined_globals(self) -> List[GlobalVar]:
        if self.kind == KIND_IL:
            assert self.il_module is not None
            return list(self.il_module.symtab.globals.values())
        return list(self.globals_list)

    def summary(self, checked: bool = False):
        """The IL module's :class:`~repro.incr.summary.ModuleSummary`,
        computed once per object: links borrow ``il_module``'s bodies
        and copy the ones they edit, so an object the build engine
        reuses is never hashed again.  ``checked`` hashes it again: a
        link that edited a borrowed body in place would poison every
        later link of this object."""
        return self._summary.get(self.il_module, _summarize,
                                 self.il_module, checked=checked)

    def interface(
        self, checked: bool = False,
    ) -> Tuple[Dict[str, int], Tuple[Tuple[str, str, int], ...]]:
        """What the link-time interface check reads of the IL module:
        each routine's parameter count, and every call site as
        ``(caller, callee, nargs)`` in routine, block and instruction
        order.  Computed once per object from its own IL (not from
        :meth:`summary`, so a cold build hashes nothing for it); like the
        summary it stays valid because links only borrow ``il_module``.
        """
        return self._interface.get(self.il_module, _walk_interface,
                                   self.il_module, checked=checked)

    # -- Construction helpers --------------------------------------------------------

    @staticmethod
    def fingerprint(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    @staticmethod
    def from_il_module(
        module: Module, source_fingerprint: str = ""
    ) -> "ObjectFile":
        referenced_routines = module.external_callees()
        defined_globals = module.symtab.globals
        # Distinct undefined globals in first-occurrence order.
        referenced: Dict[str, None] = {}
        for routine in module.routine_list():
            for sym in routine.referenced_globals():
                if sym not in defined_globals:
                    referenced[sym] = None
        return ObjectFile(
            module.name,
            KIND_IL,
            il_module=module,
            referenced_routines=referenced_routines,
            referenced_globals=list(referenced),
            source_fingerprint=source_fingerprint,
            source_lines=module.source_lines,
            opt_summary="il",
        )

    @staticmethod
    def from_machine_routines(
        module: Module,
        machine_routines: List[MachineRoutine],
        source_fingerprint: str = "",
        opt_summary: str = "",
    ) -> "ObjectFile":
        defined = {routine.name for routine in machine_routines}
        defined_globals = module.symtab.globals
        # Distinct undefined symbols in first-occurrence order.
        referenced_routines: Dict[str, None] = {}
        referenced_globals: Dict[str, None] = {}
        for machine in machine_routines:
            for instr in machine.instrs:
                sym = instr.sym
                if sym is None:
                    continue
                if instr.op is MOp.CALL:
                    if sym not in defined:
                        referenced_routines[sym] = None
                elif sym not in defined_globals:
                    referenced_globals[sym] = None
        return ObjectFile(
            module.name,
            KIND_CODE,
            machine_routines=machine_routines,
            globals_list=list(module.symtab.globals.values()),
            referenced_routines=list(referenced_routines),
            referenced_globals=list(referenced_globals),
            source_fingerprint=source_fingerprint,
            source_lines=module.source_lines,
            opt_summary=opt_summary,
        )

    # -- Serialization -----------------------------------------------------------------

    def to_bytes(self) -> bytes:
        writer = Writer()
        writer.u(_OBJ_VERSION)
        writer.string_ref(self.module_name)
        writer.u(0 if self.kind == KIND_CODE else 1)
        writer.string_ref(self.source_fingerprint)
        writer.u(self.source_lines)
        writer.string_ref(self.opt_summary)

        writer.u(len(self.referenced_routines))
        for name in self.referenced_routines:
            writer.string_ref(name)
        writer.u(len(self.referenced_globals))
        for name in self.referenced_globals:
            writer.string_ref(name)

        global_vars = self.defined_globals()
        writer.u(len(global_vars))
        for var in global_vars:
            writer.string_ref(var.name)
            writer.u(var.size)
            writer.u(1 if var.exported else 0)
            significant = len(var.init)
            while significant and var.init[significant - 1] == 0:
                significant -= 1
            writer.u(significant)
            for value in var.init[:significant]:
                writer.s(value)

        if self.kind == KIND_IL:
            assert self.il_module is not None
            # A private symbol table scopes PIDs to this object.
            local = ProgramSymbolTable()
            routines = self.il_module.routine_list()
            encoded = [compact_routine(r, local) for r in routines]
            writer.u(len(local._name_by_pid))
            for name in local._name_by_pid:
                writer.string_ref(name)
            writer.u(len(encoded))
            for blob in encoded:
                writer.u(len(blob))
                writer.buf.extend(blob)
        else:
            writer.u(len(self.machine_routines))
            for machine in self.machine_routines:
                _encode_machine_routine(writer, machine)
        return writer.finish()

    @staticmethod
    def from_bytes(data: bytes) -> "ObjectFile":
        reader = Reader(data)
        version = reader.u()
        if version != _OBJ_VERSION:
            raise LinkError("unsupported object version %d" % version)
        module_name = reader.string_ref()
        kind = KIND_CODE if reader.u() == 0 else KIND_IL
        fingerprint = reader.string_ref()
        source_lines = reader.u()
        opt_summary = reader.string_ref()

        referenced_routines = [reader.string_ref() for _ in range(reader.u())]
        referenced_globals = [reader.string_ref() for _ in range(reader.u())]

        global_vars: List[GlobalVar] = []
        for _ in range(reader.u()):
            name = reader.string_ref()
            size = reader.u()
            exported = bool(reader.u())
            significant = reader.u()
            init = [reader.s() for _ in range(significant)]
            init.extend([0] * (size - significant))
            global_vars.append(
                GlobalVar(name, size=size, init=init,
                          defining_module=module_name, exported=exported)
            )

        if kind == KIND_IL:
            local = ProgramSymbolTable()
            for _ in range(reader.u()):
                local.pid_of(reader.string_ref())
            module = Module(module_name, source_lines=source_lines)
            for var in global_vars:
                module.symtab.define_global(var)
            for _ in range(reader.u()):
                length = reader.u()
                blob = reader.data[reader.pos : reader.pos + length]
                reader.pos += length
                module.add_routine(uncompact_routine(bytes(blob), local))
            return ObjectFile(
                module_name,
                KIND_IL,
                il_module=module,
                referenced_routines=referenced_routines,
                referenced_globals=referenced_globals,
                source_fingerprint=fingerprint,
                source_lines=source_lines,
                opt_summary=opt_summary,
            )

        machine_routines = [
            _decode_machine_routine(reader) for _ in range(reader.u())
        ]
        return ObjectFile(
            module_name,
            KIND_CODE,
            machine_routines=machine_routines,
            globals_list=global_vars,
            referenced_routines=referenced_routines,
            referenced_globals=referenced_globals,
            source_fingerprint=fingerprint,
            source_lines=source_lines,
            opt_summary=opt_summary,
        )

    def __repr__(self) -> str:
        return "<ObjectFile %s (%s, %d routines)>" % (
            self.module_name,
            self.kind,
            len(self.defined_routines()),
        )


def _encode_machine_routine(writer: Writer, machine: MachineRoutine) -> None:
    """Append one routine to ``writer``: every field an unsigned varint,
    collected into one flat run and packed in a single batch (the
    per-field statement of the layout is
    ``tests/linker/reference_machine_codec.py``)."""
    sref = writer.string_index
    instrs = machine.instrs
    vals: List[int] = [
        sref(machine.name),
        sref(machine.source_module),
        machine.n_params,
        machine.frame_size,
        len(instrs),
    ]
    extend = vals.extend
    mop_field = _MOP_FIELD
    subop_field = _SUBOP_FIELD
    for instr in instrs:
        subop = instr.subop
        rd = instr.rd
        rs1 = instr.rs1
        rs2 = instr.rs2
        imm = instr.imm
        imm2 = instr.imm2
        imm2 = 0 if imm2 is None else imm2 + 1
        sym = instr.sym
        extend((
            mop_field[instr.op._value_],
            0 if subop is None else subop_field[subop._value_],
            0 if rd is None else rd + 1,
            0 if rs1 is None else rs1 + 1,
            0 if rs2 is None else rs2 + 1,
        ))
        if imm is None:
            if sym is None:
                extend((0, imm2, 0))
            else:
                extend((0, imm2, 1, sref(sym)))
        elif sym is None:
            extend((1, (imm << 1) ^ (imm >> 63), imm2, 0))
        else:
            extend((1, (imm << 1) ^ (imm >> 63), imm2, 1, sref(sym)))
    writer.buf += _pack_varints(vals)


def encode_machine_routines(machines: List[MachineRoutine]) -> bytes:
    """Standalone blob of codegen output (incremental-CMO cache entry).

    Unlike a full :class:`ObjectFile` this carries no symbol or module
    metadata -- the incremental state stores one blob per CMO module,
    keyed by the module's reuse fingerprint, and the relinker splices
    the decoded routines back in unit order.
    """
    writer = Writer()
    writer.u(_OBJ_VERSION)
    writer.u(len(machines))
    for machine in machines:
        _encode_machine_routine(writer, machine)
    return writer.finish()


def decode_machine_routines(data: bytes) -> List[MachineRoutine]:
    """Inverse of :func:`encode_machine_routines`."""
    reader = Reader(data)
    version = reader.u()
    if version != _OBJ_VERSION:
        raise LinkError("unsupported machine-blob version %d" % version)
    return [_decode_machine_routine(reader) for _ in range(reader.u())]


def encode_executable(executable) -> bytes:
    """Canonical byte encoding of a linked :class:`Executable`.

    Covers everything observable about the image -- code, data segment,
    entry point, routine/data address maps, layout order -- so two
    images are behaviourally identical iff their encodings are equal.
    This is the witness for the driver's determinism guarantee (serial
    and partitioned, cold and warm builds must produce byte-identical
    images).
    """
    writer = Writer()
    writer.u(len(executable.code))
    for instr in executable.code:
        _encode_minstr(writer, instr)
    writer.u(len(executable.data_init))
    for value in executable.data_init:
        writer.s(value)
    writer.u(executable.entry_addr)
    writer.u(len(executable.routine_meta))
    for name in sorted(executable.routine_meta):
        meta = executable.routine_meta[name]
        writer.string_ref(name)
        writer.u(meta.n_params)
        writer.u(meta.frame_size)
        writer.u(meta.addr)
        writer.u(meta.size)
    writer.u(len(executable.data_addr))
    for name in sorted(executable.data_addr):
        writer.string_ref(name)
        writer.u(executable.data_addr[name])
        writer.u(executable.data_size.get(name, 0))
    writer.u(len(executable.layout_order))
    for name in executable.layout_order:
        writer.string_ref(name)
    return writer.finish()


def decode_executable(data: bytes) -> Executable:
    """Inverse of :func:`encode_executable`.

    The coordinator ships linked images to its clients as encoded
    bytes; decoding reconstructs everything the VM needs to run them
    (probe bookkeeping is not carried -- instrumented builds stay
    in-process).
    """
    reader = Reader(data)
    executable = Executable()
    executable.code = [_decode_minstr(reader) for _ in range(reader.u())]
    executable.data_init = [reader.s() for _ in range(reader.u())]
    executable.entry_addr = reader.u()
    for _ in range(reader.u()):
        name = reader.string_ref()
        meta = RoutineMeta(
            name, reader.u(), reader.u(), reader.u(), reader.u()
        )
        executable.routine_meta[name] = meta
        executable.meta_by_addr[meta.addr] = meta
    for _ in range(reader.u()):
        name = reader.string_ref()
        executable.data_addr[name] = reader.u()
        executable.data_size[name] = reader.u()
    executable.layout_order = [
        reader.string_ref() for _ in range(reader.u())
    ]
    return executable


def _encode_minstr(writer: Writer, instr: MInstr) -> None:
    writer.u(_MOP_FIELD[instr.op.value])
    writer.u(0 if instr.subop is None else _SUBOP_FIELD[instr.subop.value])
    writer.opt_reg(instr.rd)
    writer.opt_reg(instr.rs1)
    writer.opt_reg(instr.rs2)
    if instr.imm is None:
        writer.u(0)
    else:
        writer.u(1)
        writer.s(instr.imm)
    writer.u(0 if instr.imm2 is None else instr.imm2 + 1)
    for symbolic in (instr.sym, instr.target):
        if symbolic is None:
            writer.u(0)
        else:
            writer.u(1)
            writer.string_ref(symbolic)


def _decode_minstr(reader: Reader) -> MInstr:
    op = _MOP_LIST[reader.u()]
    subop_raw = reader.u()
    subop = None if subop_raw == 0 else OPCODE_WIRE_LIST[subop_raw - 1]
    rd = reader.opt_reg()
    rs1 = reader.opt_reg()
    rs2 = reader.opt_reg()
    imm = reader.s() if reader.u() else None
    imm2_raw = reader.u()
    imm2 = None if imm2_raw == 0 else imm2_raw - 1
    sym = reader.string_ref() if reader.u() else None
    target = reader.string_ref() if reader.u() else None
    return MInstr(op, subop=subop, rd=rd, rs1=rs1, rs2=rs2, imm=imm,
                  imm2=imm2, sym=sym, target=target)


def _decode_machine_routine(reader: Reader) -> MachineRoutine:
    """Inverse of :func:`_encode_machine_routine`, at ``reader.pos``.

    Batched like the IL codec: a local cursor over the buffer, one-byte
    varint fast path, instructions built by slot stores.  Running off
    the buffer or naming an opcode or string that does not exist is a
    :class:`CompactionError` with ``offset`` and ``field``.
    """
    buf = reader.data
    strings = reader.strings
    pos = reader.pos
    field = "machine routine header"
    try:
        at = pos
        index, pos = _uv(buf, pos)
        name = _string_at(strings, index, at, "machine routine name")
        at = pos
        index, pos = _uv(buf, pos)
        source_module = _string_at(strings, index, at, "source module")
        n_params, pos = _uv(buf, pos)
        frame_size, pos = _uv(buf, pos)
        count, pos = _uv(buf, pos)

        field = "machine instruction"
        mops = _MOP_LIST
        n_mops = len(mops)
        subops = OPCODE_WIRE_LIST
        n_subops = len(subops)
        cont = _uv_cont
        new = object.__new__
        instr_cls = MInstr
        instrs: List[MInstr] = []
        append = instrs.append
        for _ in range(count):
            instr = new(instr_cls)
            at = pos
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            if v >= n_mops:
                raise CompactionError(
                    "bad machine opcode %d at offset %d" % (v, at),
                    offset=at, field="machine opcode",
                )
            instr.op = mops[v]
            at = pos
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            if v > n_subops:
                raise CompactionError(
                    "bad ALU sub-opcode %d at offset %d" % (v, at),
                    offset=at, field="machine sub-opcode",
                )
            instr.subop = subops[v - 1] if v else None
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            instr.rd = v - 1 if v else None
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            instr.rs1 = v - 1 if v else None
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            instr.rs2 = v - 1 if v else None
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            if v:
                v = buf[pos]
                pos += 1
                if v & 0x80:
                    v, pos = cont(buf, pos, v)
                instr.imm = (v >> 1) ^ -(v & 1)
            else:
                instr.imm = None
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            instr.imm2 = v - 1 if v else None
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            if v:
                at = pos
                v = buf[pos]
                pos += 1
                if v & 0x80:
                    v, pos = cont(buf, pos, v)
                instr.sym = _string_at(strings, v, at, "machine symbol")
            else:
                instr.sym = None
            instr.target = None
            append(instr)
    except IndexError:
        raise CompactionError(
            "truncated %s (buffer end at offset %d)" % (field, len(buf)),
            offset=len(buf), field=field,
        ) from None
    reader.pos = pos
    return MachineRoutine(
        name, instrs, n_params=n_params, frame_size=frame_size,
        source_module=source_module
    )
