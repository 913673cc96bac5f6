"""The per-field IL codec, kept as the format spec.

``src/repro/naim/compaction.py`` encodes and decodes routines and
module symbol tables in batches (one flat run of varints per pool,
opcode-shape dispatch and slot stores on decode).  This module is the
code that replaced: one ``Writer`` / ``Reader`` call per field, which
is the plainest statement of the relocatable layout.
``tests/property/test_prop_codec.py``, ``test_compaction.py`` and the
codec benchmarks assert both produce the same bytes and the same
objects; nothing under ``src/`` imports this.

Layout of a routine pool, every field an unsigned LEB128 varint behind
the ``Writer`` string table (``s`` = zigzag, ``str`` = string index)::

    pid(name) str(module) exported n_params next_reg source_lines
    str(language) n_blocks n_blocks*str(label)
    n_blocks * [ n_instrs n_instrs*instr ]
    n_annotations * [ str(key) 0 s(int) | 1 str(text) ]

An instruction is its opcode's wire index followed by the fields
:func:`_encode_instr` writes for that opcode.  A symbol-table pool is
``str(module) n_globals global* n_routines pid* n_externs pid*`` with
each global's initializer stored up to its last non-zero word.
"""

from typing import Dict, List

from repro.ir.basic_block import BasicBlock
from repro.ir.instructions import Instr, Opcode
from repro.ir.routine import Routine
from repro.ir.symbols import GlobalVar, ModuleSymbolTable, ProgramSymbolTable
from repro.naim.compaction import (
    _BINARY_SET,
    OPCODE_WIRE_INDEX,
    OPCODE_WIRE_LIST,
    CompactionError,
    Reader,
    Writer,
)


def _encode_instr(
    writer: Writer,
    instr: Instr,
    label_index: Dict[str, int],
    symtab: ProgramSymbolTable,
) -> None:
    code = OPCODE_WIRE_INDEX[instr.op]
    writer.u(code)
    op = instr.op
    if op is Opcode.CONST:
        writer.u(instr.dst)
        writer.s(instr.imm)
    elif op in (Opcode.MOV, Opcode.NEG, Opcode.NOT):
        writer.u(instr.dst)
        writer.u(instr.a)
    elif code in _BINARY_SET:
        writer.u(instr.dst)
        writer.u(instr.a)
        writer.u(instr.b)
    elif op is Opcode.LOADG:
        writer.u(instr.dst)
        writer.u(symtab.pid_of(instr.sym))
    elif op is Opcode.STOREG:
        writer.u(symtab.pid_of(instr.sym))
        writer.u(instr.a)
    elif op is Opcode.LOADE:
        writer.u(instr.dst)
        writer.u(symtab.pid_of(instr.sym))
        writer.u(instr.a)
    elif op is Opcode.STOREE:
        writer.u(symtab.pid_of(instr.sym))
        writer.u(instr.a)
        writer.u(instr.b)
    elif op is Opcode.CALL:
        writer.opt_reg(instr.dst)
        writer.u(symtab.pid_of(instr.sym))
        writer.u(len(instr.args))
        for arg in instr.args:
            writer.u(arg)
    elif op is Opcode.RET:
        writer.opt_reg(instr.a)
    elif op is Opcode.BR:
        writer.u(instr.a)
        writer.u(label_index[instr.targets[0]])
        writer.u(label_index[instr.targets[1]])
    elif op is Opcode.JMP:
        writer.u(label_index[instr.targets[0]])
    elif op is Opcode.PROBE:
        writer.u(instr.imm)
    else:  # pragma: no cover
        raise CompactionError("unencodable opcode %s" % op)


def _decode_instr(
    reader: Reader, labels: List[str], symtab: ProgramSymbolTable
) -> Instr:
    at = reader.pos
    code = reader.u()
    try:
        op = OPCODE_WIRE_LIST[code]
    except IndexError:
        raise CompactionError("bad opcode %d at offset %d" % (code, at),
                              offset=at, field="opcode")
    if op is Opcode.CONST:
        return Instr(op, dst=reader.u(), imm=reader.s())
    if op in (Opcode.MOV, Opcode.NEG, Opcode.NOT):
        return Instr(op, dst=reader.u(), a=reader.u())
    if code in _BINARY_SET:
        return Instr(op, dst=reader.u(), a=reader.u(), b=reader.u())
    if op is Opcode.LOADG:
        return Instr(op, dst=reader.u(), sym=symtab.name_of(reader.u()))
    if op is Opcode.STOREG:
        return Instr(op, sym=symtab.name_of(reader.u()), a=reader.u())
    if op is Opcode.LOADE:
        return Instr(op, dst=reader.u(), sym=symtab.name_of(reader.u()),
                     a=reader.u())
    if op is Opcode.STOREE:
        return Instr(op, sym=symtab.name_of(reader.u()), a=reader.u(),
                     b=reader.u())
    if op is Opcode.CALL:
        dst = reader.opt_reg()
        sym = symtab.name_of(reader.u())
        nargs = reader.u()
        args = tuple(reader.u() for _ in range(nargs))
        return Instr(op, dst=dst, sym=sym, args=args)
    if op is Opcode.RET:
        return Instr(op, a=reader.opt_reg())
    if op is Opcode.BR:
        a = reader.u()
        t0 = _label_at(reader, labels)
        t1 = _label_at(reader, labels)
        return Instr(op, a=a, targets=(t0, t1))
    if op is Opcode.JMP:
        return Instr(op, targets=(_label_at(reader, labels),))
    if op is Opcode.PROBE:
        return Instr(op, imm=reader.u())
    raise CompactionError("undecodable opcode %s" % op)  # pragma: no cover


def _label_at(reader: Reader, labels: List[str]) -> str:
    at = reader.pos
    index = reader.u()
    try:
        return labels[index]
    except IndexError:
        raise CompactionError(
            "bad label index %d at offset %d" % (index, at),
            offset=at, field="label index",
        )


def compact_routine_reference(
    routine: Routine, symtab: ProgramSymbolTable
) -> bytes:
    """Reference encoder: one :class:`Writer` call per field.

    :func:`repro.naim.compaction.compact_routine` must produce
    identical bytes.
    """
    writer = Writer()
    writer.u(symtab.pid_of(routine.name))
    writer.string_ref(routine.module_name)
    writer.u(1 if routine.exported else 0)
    writer.u(routine.n_params)
    writer.u(routine.next_reg)
    writer.u(routine.source_lines)
    writer.string_ref(routine.source_language)

    labels = routine.block_labels()
    label_index = {label: i for i, label in enumerate(labels)}
    writer.u(len(labels))
    for label in labels:
        writer.string_ref(label)
    for block in routine.blocks:
        writer.u(len(block.instrs))
        for instr in block.instrs:
            _encode_instr(writer, instr, label_index, symtab)

    annotations = sorted(
        (key, value)
        for key, value in routine.annotations.items()
        if isinstance(value, (int, str))
    )
    writer.u(len(annotations))
    for key, value in annotations:
        writer.string_ref(key)
        if isinstance(value, int):
            writer.u(0)
            writer.s(value)
        else:
            writer.u(1)
            writer.string_ref(value)
    return writer.finish()


def uncompact_routine_reference(
    data, symtab: ProgramSymbolTable
) -> Routine:
    """Reference decoder (one :class:`Reader` call per field)."""
    reader = Reader(data)
    name = symtab.name_of(reader.u())
    module_name = reader.string_ref()
    exported = bool(reader.u())
    n_params = reader.u()
    next_reg = reader.u()
    source_lines = reader.u()
    source_language = reader.string_ref()

    routine = Routine(
        name,
        module_name=module_name,
        n_params=n_params,
        exported=exported,
        source_lines=source_lines,
        source_language=source_language,
    )
    n_blocks = reader.u()
    labels = [reader.string_ref() for _ in range(n_blocks)]
    for label in labels:
        block = BasicBlock(label)
        n_instrs = reader.u()
        for _ in range(n_instrs):
            block.instrs.append(_decode_instr(reader, labels, symtab))
        routine.blocks.append(block)
    routine.next_reg = next_reg

    n_annotations = reader.u()
    for _ in range(n_annotations):
        key = reader.string_ref()
        kind = reader.u()
        if kind == 0:
            routine.annotations[key] = reader.s()
        else:
            routine.annotations[key] = reader.string_ref()
    routine.invalidate()
    return routine


def compact_symtab_reference(
    symtab: ModuleSymbolTable, program: ProgramSymbolTable
) -> bytes:
    """Reference encoder for module symbol tables."""
    writer = Writer()
    writer.string_ref(symtab.module_name)
    writer.u(len(symtab.globals))
    for var in symtab.globals.values():
        writer.u(program.pid_of(var.name))
        writer.u(var.size)
        writer.u(1 if var.exported else 0)
        # Run-length encode trailing zeros: most arrays are zero-filled.
        init = list(var.init)
        significant = len(init)
        while significant and init[significant - 1] == 0:
            significant -= 1
        writer.u(significant)
        for value in init[:significant]:
            writer.s(value)
    writer.u(len(symtab.routine_names))
    for name in symtab.routine_names:
        writer.u(program.pid_of(name))
    writer.u(len(symtab.extern_refs))
    for name in symtab.extern_refs:
        writer.u(program.pid_of(name))
    return writer.finish()


def uncompact_symtab_reference(
    data, program: ProgramSymbolTable
) -> ModuleSymbolTable:
    """Reference decoder for module symbol tables."""
    reader = Reader(data)
    symtab = ModuleSymbolTable(reader.string_ref())
    n_globals = reader.u()
    for _ in range(n_globals):
        name = program.name_of(reader.u())
        size = reader.u()
        exported = bool(reader.u())
        significant = reader.u()
        init = [reader.s() for _ in range(significant)]
        init.extend([0] * (size - significant))
        var = GlobalVar(name, size=size, init=init, exported=exported)
        symtab.define_global(var)
        var.defining_module = symtab.module_name
    n_routines = reader.u()
    for _ in range(n_routines):
        symtab.routine_names.append(program.name_of(reader.u()))
    n_externs = reader.u()
    for _ in range(n_externs):
        symtab.extern_refs.append(program.name_of(reader.u()))
    return symtab
