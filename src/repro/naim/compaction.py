"""Compaction and uncompaction drivers (paper §4.2.1-4.2.2).

Transitory objects (routine IR, module symbol tables) have two forms:

* **expanded** -- ordinary Python objects, freely cross-referencing by
  address (:class:`repro.ir.Routine` etc.);
* **relocatable** -- a compact, address-independent byte string in
  which references to more-permanent objects (global symbols, routine
  names) are *persistent identifiers* (PIDs) assigned by the program
  symbol table, and intra-pool references (block labels, strings) are
  indices into a pool-local string table.

Converting expanded -> relocatable is *compaction*; the reverse is
*uncompaction*, whose PID->address resolution is the paper's **eager
swizzling**.  Compaction also drops every derived-data field (they are
recomputed on demand), which is where most of the space saving comes
from, and -- exactly as in the paper -- acts as a garbage collection:
only objects reachable from the routine root survive the round trip.

The encoding uses LEB128 varints with zigzag for signed values; compact
sizes reported to the memory accountant are the real encoded lengths.

Two codec implementations share the one wire format:

* the **reference codec** (:class:`Writer`/:class:`Reader` plus the
  ``*_reference`` entry points) emits one varint per call and reads
  like a format specification;
* the **batched codec** (the default ``compact_routine`` /
  ``uncompact_routine``) collects a whole routine's field values and
  emits/consumes them in bulk runs, with an opcode-shape dispatch
  table instead of the per-opcode if-chain.  It exists purely for
  speed: roughly 95% of encoded values fit in one byte, so the
  encoder flushes maximal ``0..127`` runs through ``bytes()`` in C
  (measured faster than an equivalent ``struct.Struct("<NB")`` pack
  because no format object needs sizing per run) and the decoder
  inlines the one-byte fast path.

The two must be byte-identical on every input; the dual-codec property
test (``tests/property/test_prop_codec.py``) and the ``perf-smoke`` CI
job enforce that.  ``uncompact_routine`` additionally supports *lazy
materialization* (``lazy=True``): block bodies and annotations are
located but not decoded until first touched, so a touch that only
reads routine metadata never pays per-instruction decode.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir.basic_block import BasicBlock
from ..ir.instructions import Instr, Opcode
from ..ir.routine import Routine
from ..ir.symbols import GlobalVar, ModuleSymbolTable, ProgramSymbolTable
from .intern import InternPool

_VERSION = 2

#: Stable opcode numbering for the wire format (never reorder).
_OPCODE_LIST = [
    Opcode.CONST,
    Opcode.MOV,
    Opcode.ADD,
    Opcode.SUB,
    Opcode.MUL,
    Opcode.DIV,
    Opcode.MOD,
    Opcode.AND,
    Opcode.OR,
    Opcode.XOR,
    Opcode.SHL,
    Opcode.SHR,
    Opcode.NEG,
    Opcode.NOT,
    Opcode.EQ,
    Opcode.NE,
    Opcode.LT,
    Opcode.LE,
    Opcode.GT,
    Opcode.GE,
    Opcode.LOADG,
    Opcode.STOREG,
    Opcode.LOADE,
    Opcode.STOREE,
    Opcode.CALL,
    Opcode.RET,
    Opcode.BR,
    Opcode.JMP,
    Opcode.PROBE,
]
_OPCODE_INDEX = {op: i for i, op in enumerate(_OPCODE_LIST)}
_N_OPCODES = len(_OPCODE_LIST)

#: Public aliases for other wire formats (object files) that need a
#: stable opcode numbering.
OPCODE_WIRE_LIST = _OPCODE_LIST
OPCODE_WIRE_INDEX = _OPCODE_INDEX

_BINARY_SET = frozenset(
    _OPCODE_INDEX[op]
    for op in _OPCODE_LIST
    if op.value in (
        "add", "sub", "mul", "div", "mod", "and", "or", "xor", "shl", "shr",
        "eq", "ne", "lt", "le", "gt", "ge",
    )
)


class CompactionError(Exception):
    """Raised on malformed relocatable data.

    ``offset`` (byte position in the relocatable buffer, when known)
    and ``field`` (which part of the encoding was being read) make
    corruption reports actionable instead of a bare ``IndexError``.
    """

    def __init__(self, message: str, offset: Optional[int] = None,
                 field: Optional[str] = None) -> None:
        super().__init__(message)
        self.offset = offset
        self.field = field


# -- Varint primitives --------------------------------------------------------


def zigzag_encode(value: int) -> int:
    """Map signed to unsigned for varint encoding (64-bit domain)."""
    return (value << 1) ^ (value >> 63)


def zigzag_decode(value: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    return (value >> 1) ^ -(value & 1)


class Writer:
    """Byte-string builder with varint and string-table support."""

    def __init__(self) -> None:
        self.buf = bytearray()
        self.strings: List[str] = []
        self._string_index: Dict[str, int] = {}

    def u(self, value: int) -> None:
        """Unsigned LEB128 varint."""
        if value < 0:
            raise CompactionError("negative value in unsigned field: %d" % value)
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                self.buf.append(byte | 0x80)
            else:
                self.buf.append(byte)
                return

    def s(self, value: int) -> None:
        """Signed zigzag varint."""
        self.u(zigzag_encode(value))

    def opt_reg(self, reg) -> None:
        """Optional register: 0 = absent, else reg+1."""
        self.u(0 if reg is None else reg + 1)

    def string_index(self, text: str) -> int:
        """The string-table index of ``text``, interning it if new."""
        index = self._string_index.get(text)
        if index is None:
            index = len(self.strings)
            self.strings.append(text)
            self._string_index[text] = index
        return index

    def string_ref(self, text: str) -> None:
        self.u(self.string_index(text))

    def finish(self) -> bytes:
        """Emit string table header + body."""
        head = Writer()
        head.u(_VERSION)
        head.u(len(self.strings))
        for text in self.strings:
            raw = text.encode("utf-8")
            head.u(len(raw))
            head.buf.extend(raw)
        return bytes(head.buf) + bytes(self.buf)


class Reader:
    """Inverse of :class:`Writer`.

    Accepts any bytes-like input (``bytes``, ``bytearray``,
    ``memoryview`` over a pack-segment mmap); non-``bytes`` buffers
    are snapshot once up front, so per-byte reads stay on the fast
    ``bytes`` indexing path and the caller's view can be released.
    """

    def __init__(self, data) -> None:
        if data.__class__ is not bytes:
            data = bytes(data)
        self.data = data
        self.pos = 0
        version = self.u()
        if version != _VERSION:
            raise CompactionError("bad relocatable version %d" % version)
        count = self.u()
        self.strings: List[str] = []
        for _ in range(count):
            length = self.u()
            raw = self.data[self.pos : self.pos + length]
            if len(raw) != length:
                raise CompactionError(
                    "truncated string table at offset %d" % self.pos,
                    offset=self.pos, field="string table",
                )
            self.strings.append(raw.decode("utf-8"))
            self.pos += length

    def u(self) -> int:
        result = 0
        shift = 0
        while True:
            if self.pos >= len(self.data):
                raise CompactionError(
                    "truncated varint at offset %d" % self.pos,
                    offset=self.pos, field="varint",
                )
            byte = self.data[self.pos]
            self.pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7

    def s(self) -> int:
        return zigzag_decode(self.u())

    def opt_reg(self):
        value = self.u()
        return None if value == 0 else value - 1

    def string_ref(self) -> str:
        at = self.pos
        index = self.u()
        try:
            return self.strings[index]
        except IndexError:
            raise CompactionError(
                "bad string index %d at offset %d" % (index, at),
                offset=at, field="string index",
            )


# -- Opcode shape dispatch ----------------------------------------------------

# Every opcode encodes one of twelve field shapes; the batched codec
# dispatches on a small int instead of walking an if-chain of Opcode
# identity tests.
(_SH_CONST, _SH_UNARY, _SH_BINARY, _SH_LOADG, _SH_STOREG, _SH_LOADE,
 _SH_STOREE, _SH_CALL, _SH_RET, _SH_BR, _SH_JMP, _SH_PROBE) = range(12)


def _shape_of(op: Opcode, code: int) -> int:
    if op is Opcode.CONST:
        return _SH_CONST
    if op in (Opcode.MOV, Opcode.NEG, Opcode.NOT):
        return _SH_UNARY
    if code in _BINARY_SET:
        return _SH_BINARY
    if op is Opcode.LOADG:
        return _SH_LOADG
    if op is Opcode.STOREG:
        return _SH_STOREG
    if op is Opcode.LOADE:
        return _SH_LOADE
    if op is Opcode.STOREE:
        return _SH_STOREE
    if op is Opcode.CALL:
        return _SH_CALL
    if op is Opcode.RET:
        return _SH_RET
    if op is Opcode.BR:
        return _SH_BR
    if op is Opcode.JMP:
        return _SH_JMP
    if op is Opcode.PROBE:
        return _SH_PROBE
    raise AssertionError("unshaped opcode %s" % op)  # pragma: no cover


_SHAPE_BY_CODE = tuple(
    _shape_of(op, code) for code, op in enumerate(_OPCODE_LIST)
)
_SHAPE_BY_OP = {op: _SHAPE_BY_CODE[code]
                for op, code in _OPCODE_INDEX.items()}
#: Fixed varint field count per shape (CALL is variable: marked -1).
_NFIELDS_BY_SHAPE = (2, 2, 3, 2, 2, 3, 3, -1, 1, 3, 1, 1)

_NEW = object.__new__


# -- Batched varint primitives -----------------------------------------------


def _pack_varints(values: List[int]) -> bytearray:
    """Encode a flat run of unsigned values as LEB128, batched.

    The common case -- every value below 0x80 -- reduces to one
    ``bytes(list_slice)`` call per run, which is a single C-level
    memcpy-style conversion instead of one ``Writer.u`` call per
    field.
    """
    out = bytearray()
    run_start = 0
    index = 0
    for index, value in enumerate(values):
        if 0 <= value < 0x80:
            continue
        if index > run_start:
            out += bytes(values[run_start:index])
        run_start = index + 1
        if value < 0:
            raise CompactionError(
                "negative value in unsigned field: %d" % value
            )
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
    if len(values) > run_start:
        out += bytes(values[run_start:])
    return out


def _pack_one(out: bytearray, value: int) -> None:
    """Append one unsigned varint (header fields; not the hot path)."""
    if value < 0:
        raise CompactionError("negative value in unsigned field: %d" % value)
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _finish_batched(strings: List[str], vals: List[int]) -> bytes:
    """String-table header + batched body (same bytes as Writer.finish)."""
    head = bytearray()
    _pack_one(head, _VERSION)
    _pack_one(head, len(strings))
    for text in strings:
        raw = text.encode("utf-8")
        _pack_one(head, len(raw))
        head += raw
    head += _pack_varints(vals)
    return bytes(head)


def _uv(buf: bytes, pos: int):
    """Read one unsigned varint; returns (value, next position)."""
    byte = buf[pos]
    pos += 1
    if byte < 0x80:
        return byte, pos
    result = byte & 0x7F
    shift = 7
    while True:
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos
        shift += 7


def _uv_cont(buf: bytes, pos: int, first: int):
    """Finish a multi-byte varint whose first byte was already read."""
    result = first & 0x7F
    shift = 7
    while True:
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos
        shift += 7


# -- Reference per-instruction codec ------------------------------------------


def _encode_instr(
    writer: Writer,
    instr: Instr,
    label_index: Dict[str, int],
    symtab: ProgramSymbolTable,
) -> None:
    code = _OPCODE_INDEX[instr.op]
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
        op = _OPCODE_LIST[code]
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


# -- Routine compaction (reference codec) -------------------------------------


def compact_routine_reference(
    routine: Routine, symtab: ProgramSymbolTable
) -> bytes:
    """Reference encoder: one :class:`Writer` call per field.

    This is the format specification; :func:`compact_routine` must
    produce identical bytes (the dual-codec differential test holds
    them together).
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


# -- Routine compaction (batched codec, the default) --------------------------


def compact_routine(routine: Routine, symtab: ProgramSymbolTable) -> bytes:
    """Encode a routine into its relocatable form.

    Symbol references are swizzled to PIDs; block labels become indices;
    derived data is *not* represented (recompute-on-demand discipline).
    Byte-identical to :func:`compact_routine_reference`, but batched:
    the whole routine's varint values are collected into one flat run
    and flushed through :func:`_pack_varints`.
    """
    strings: List[str] = []
    sindex: Dict[str, int] = {}

    def sref(text: str) -> int:
        index = sindex.get(text)
        if index is None:
            index = len(strings)
            strings.append(text)
            sindex[text] = index
        return index

    pid_of = symtab.pid_of
    vals: List[int] = [
        pid_of(routine.name),
        sref(routine.module_name),
        1 if routine.exported else 0,
        routine.n_params,
        routine.next_reg,
        routine.source_lines,
        sref(routine.source_language),
    ]
    append = vals.append
    extend = vals.extend

    blocks = routine.blocks
    append(len(blocks))
    label_index: Dict[str, int] = {}
    for index, block in enumerate(blocks):
        label_index[block.label] = index
        append(sref(block.label))

    op_index = _OPCODE_INDEX
    shapes = _SHAPE_BY_OP
    for block in blocks:
        instrs = block.instrs
        append(len(instrs))
        for instr in instrs:
            op = instr.op
            code = op_index[op]
            shape = shapes[op]
            if shape == _SH_BINARY:
                extend((code, instr.dst, instr.a, instr.b))
            elif shape == _SH_CONST:
                imm = instr.imm
                extend((code, instr.dst, (imm << 1) ^ (imm >> 63)))
            elif shape == _SH_UNARY:
                extend((code, instr.dst, instr.a))
            elif shape == _SH_LOADG:
                extend((code, instr.dst, pid_of(instr.sym)))
            elif shape == _SH_STOREG:
                extend((code, pid_of(instr.sym), instr.a))
            elif shape == _SH_LOADE:
                extend((code, instr.dst, pid_of(instr.sym), instr.a))
            elif shape == _SH_STOREE:
                extend((code, pid_of(instr.sym), instr.a, instr.b))
            elif shape == _SH_CALL:
                dst = instr.dst
                args = instr.args
                extend((code, 0 if dst is None else dst + 1,
                        pid_of(instr.sym), len(args)))
                if args:
                    extend(args)
            elif shape == _SH_RET:
                a = instr.a
                extend((code, 0 if a is None else a + 1))
            elif shape == _SH_BR:
                targets = instr.targets
                extend((code, instr.a, label_index[targets[0]],
                        label_index[targets[1]]))
            elif shape == _SH_JMP:
                extend((code, label_index[instr.targets[0]]))
            else:  # _SH_PROBE
                extend((code, instr.imm))

    annotations = sorted(
        (key, value)
        for key, value in routine.annotations.items()
        if isinstance(value, (int, str))
    )
    append(len(annotations))
    for key, value in annotations:
        append(sref(key))
        if isinstance(value, int):
            append(0)
            append((value << 1) ^ (value >> 63))
        else:
            append(1)
            append(sref(value))
    return _finish_batched(strings, vals)


def _decode_instr_run(buf: bytes, pos: int, count: int, labels: List[str],
                      symtab: ProgramSymbolTable, out: list) -> int:
    """Decode ``count`` instructions at ``pos`` into ``out``.

    The batched hot loop: varint reads are inlined with a one-byte
    fast path, instruction objects are built by direct slot stores
    (skipping ``Instr.__init__``), and opcode dispatch goes through
    the shape table.  Buffer underrun surfaces as ``IndexError`` and
    is converted to a structured :class:`CompactionError` by the
    callers (they know the enclosing field).
    """
    ops = _OPCODE_LIST
    n_ops = _N_OPCODES
    shapes = _SHAPE_BY_CODE
    names = symtab._name_by_pid
    name_of = symtab.name_of
    new = _NEW
    instr_cls = Instr
    append = out.append
    cont = _uv_cont
    for _ in range(count):
        at = pos
        code = buf[pos]
        pos += 1
        if code & 0x80:
            code, pos = cont(buf, pos, code)
        if code >= n_ops:
            raise CompactionError("bad opcode %d at offset %d" % (code, at),
                                  offset=at, field="opcode")
        shape = shapes[code]
        instr = new(instr_cls)
        instr.op = ops[code]
        if shape == _SH_BINARY:
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            instr.dst = v
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            instr.a = v
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            instr.b = v
            instr.imm = None
            instr.sym = None
            instr.args = ()
            instr.targets = ()
        elif shape == _SH_CONST:
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            instr.dst = v
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            instr.imm = (v >> 1) ^ -(v & 1)
            instr.a = None
            instr.b = None
            instr.sym = None
            instr.args = ()
            instr.targets = ()
        elif shape == _SH_UNARY:
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            instr.dst = v
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            instr.a = v
            instr.b = None
            instr.imm = None
            instr.sym = None
            instr.args = ()
            instr.targets = ()
        elif shape == _SH_LOADG:
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            instr.dst = v
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            try:
                instr.sym = names[v]
            except IndexError:
                instr.sym = name_of(v)  # raises SymbolError
            instr.a = None
            instr.b = None
            instr.imm = None
            instr.args = ()
            instr.targets = ()
        elif shape == _SH_STOREG:
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            try:
                instr.sym = names[v]
            except IndexError:
                instr.sym = name_of(v)
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            instr.a = v
            instr.dst = None
            instr.b = None
            instr.imm = None
            instr.args = ()
            instr.targets = ()
        elif shape == _SH_LOADE:
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            instr.dst = v
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            try:
                instr.sym = names[v]
            except IndexError:
                instr.sym = name_of(v)
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            instr.a = v
            instr.b = None
            instr.imm = None
            instr.args = ()
            instr.targets = ()
        elif shape == _SH_STOREE:
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            try:
                instr.sym = names[v]
            except IndexError:
                instr.sym = name_of(v)
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            instr.a = v
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            instr.b = v
            instr.dst = None
            instr.imm = None
            instr.args = ()
            instr.targets = ()
        elif shape == _SH_CALL:
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            instr.dst = None if v == 0 else v - 1
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            try:
                instr.sym = names[v]
            except IndexError:
                instr.sym = name_of(v)
            nargs = buf[pos]
            pos += 1
            if nargs & 0x80:
                nargs, pos = cont(buf, pos, nargs)
            if nargs:
                args = []
                args_append = args.append
                for _a in range(nargs):
                    v = buf[pos]
                    pos += 1
                    if v & 0x80:
                        v, pos = cont(buf, pos, v)
                    args_append(v)
                instr.args = tuple(args)
            else:
                instr.args = ()
            instr.a = None
            instr.b = None
            instr.imm = None
            instr.targets = ()
        elif shape == _SH_RET:
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            instr.a = None if v == 0 else v - 1
            instr.dst = None
            instr.b = None
            instr.imm = None
            instr.sym = None
            instr.args = ()
            instr.targets = ()
        elif shape == _SH_BR:
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            instr.a = v
            at = pos
            t0 = buf[pos]
            pos += 1
            if t0 & 0x80:
                t0, pos = cont(buf, pos, t0)
            t1 = buf[pos]
            pos += 1
            if t1 & 0x80:
                t1, pos = cont(buf, pos, t1)
            try:
                instr.targets = (labels[t0], labels[t1])
            except IndexError:
                raise CompactionError(
                    "bad label index (%d, %d) at offset %d" % (t0, t1, at),
                    offset=at, field="label index",
                )
            instr.dst = None
            instr.b = None
            instr.imm = None
            instr.sym = None
            instr.args = ()
        elif shape == _SH_JMP:
            at = pos
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            try:
                instr.targets = (labels[v],)
            except IndexError:
                raise CompactionError(
                    "bad label index %d at offset %d" % (v, at),
                    offset=at, field="label index",
                )
            instr.dst = None
            instr.a = None
            instr.b = None
            instr.imm = None
            instr.sym = None
            instr.args = ()
        else:  # _SH_PROBE
            v = buf[pos]
            pos += 1
            if v & 0x80:
                v, pos = cont(buf, pos, v)
            instr.imm = v
            instr.dst = None
            instr.a = None
            instr.b = None
            instr.sym = None
            instr.args = ()
            instr.targets = ()
        append(instr)
    return pos


def _skip_instr_run(buf: bytes, pos: int, count: int) -> int:
    """Advance past ``count`` encoded instructions without decoding.

    Powers lazy block materialization: locating a block's byte span
    costs a varint walk but no object construction, no swizzling and
    no zigzag work.
    """
    n_ops = _N_OPCODES
    shapes = _SHAPE_BY_CODE
    nfields = _NFIELDS_BY_SHAPE
    cont = _uv_cont
    for _ in range(count):
        at = pos
        code = buf[pos]
        pos += 1
        if code & 0x80:
            code, pos = cont(buf, pos, code)
        if code >= n_ops:
            raise CompactionError("bad opcode %d at offset %d" % (code, at),
                                  offset=at, field="opcode")
        fields = nfields[shapes[code]]
        if fields < 0:  # CALL: dst, sym, then nargs args
            byte = buf[pos]
            pos += 1
            while byte & 0x80:
                byte = buf[pos]
                pos += 1
            byte = buf[pos]
            pos += 1
            while byte & 0x80:
                byte = buf[pos]
                pos += 1
            nargs = buf[pos]
            pos += 1
            if nargs & 0x80:
                nargs, pos = cont(buf, pos, nargs)
            fields = nargs
        for _f in range(fields):
            byte = buf[pos]
            pos += 1
            while byte & 0x80:
                byte = buf[pos]
                pos += 1
    return pos


def _string_at(strings: List[str], index: int, pos: int,
               field: str) -> str:
    try:
        return strings[index]
    except IndexError:
        raise CompactionError(
            "bad string index %d at offset %d (%s)" % (index, pos, field),
            offset=pos, field=field,
        )


def _decode_annotations(buf: bytes, pos: int, count: int,
                        strings: List[str], out) -> int:
    """Decode ``count`` annotation entries at ``pos`` into mapping ``out``."""
    for _ in range(count):
        at = pos
        index, pos = _uv(buf, pos)
        key = _string_at(strings, index, at, "annotation key")
        kind, pos = _uv(buf, pos)
        at = pos
        value, pos = _uv(buf, pos)
        if kind == 0:
            out[key] = (value >> 1) ^ -(value & 1)
        else:
            out[key] = _string_at(strings, value, at, "annotation value")
    return pos


class _LazyInstrs(list):
    """Block body decoded on first access (cold-block laziness).

    A real ``list`` subclass so every consumer works unchanged; the
    instruction run is located during uncompaction but only decoded
    when something actually reads or mutates the block.  ``__len__``
    answers from the encoded count without decoding, which keeps the
    memory accountant's ``instr_count`` walk free for cold blocks.
    """

    __slots__ = ("_lazy",)

    def __init__(self, buf: bytes, start: int, count: int,
                 labels: List[str], symtab: ProgramSymbolTable) -> None:
        list.__init__(self)
        self._lazy = (buf, start, count, labels, symtab)

    def _force(self) -> None:
        state = self._lazy
        if state is None:
            return
        self._lazy = None
        buf, start, count, labels, symtab = state
        out: List[Instr] = []
        try:
            _decode_instr_run(buf, start, count, labels, symtab, out)
        except IndexError:
            raise CompactionError(
                "truncated relocatable data in instruction stream "
                "(buffer end at offset %d)" % len(buf),
                offset=len(buf), field="instruction stream",
            ) from None
        list.extend(self, out)

    def materialized(self) -> bool:
        return self._lazy is None

    def __len__(self):
        state = self._lazy
        if state is None:
            return list.__len__(self)
        return state[2]

    def __iter__(self):
        self._force()
        return list.__iter__(self)

    def __reversed__(self):
        self._force()
        return list.__reversed__(self)

    def __getitem__(self, index):
        self._force()
        return list.__getitem__(self, index)

    def __setitem__(self, index, value):
        self._force()
        list.__setitem__(self, index, value)

    def __delitem__(self, index):
        self._force()
        list.__delitem__(self, index)

    def __contains__(self, value):
        self._force()
        return list.__contains__(self, value)

    def __eq__(self, other):
        self._force()
        return list.__eq__(self, other)

    def __ne__(self, other):
        self._force()
        return list.__ne__(self, other)

    def __lt__(self, other):
        self._force()
        return list.__lt__(self, other)

    def __le__(self, other):
        self._force()
        return list.__le__(self, other)

    def __gt__(self, other):
        self._force()
        return list.__gt__(self, other)

    def __ge__(self, other):
        self._force()
        return list.__ge__(self, other)

    __hash__ = None

    def __add__(self, other):
        self._force()
        return list.__add__(self, other)

    def __radd__(self, other):
        self._force()
        return other + list(self)

    def __iadd__(self, other):
        self._force()
        list.extend(self, other)
        return self

    def __mul__(self, n):
        self._force()
        return list.__mul__(self, n)

    __rmul__ = __mul__

    def __imul__(self, n):
        self._force()
        return list.__imul__(self, n)

    def append(self, value):
        self._force()
        list.append(self, value)

    def extend(self, values):
        self._force()
        list.extend(self, values)

    def insert(self, index, value):
        self._force()
        list.insert(self, index, value)

    def remove(self, value):
        self._force()
        list.remove(self, value)

    def pop(self, index=-1):
        self._force()
        return list.pop(self, index)

    def clear(self):
        self._lazy = None
        list.clear(self)

    def index(self, *args):
        self._force()
        return list.index(self, *args)

    def count(self, value):
        self._force()
        return list.count(self, value)

    def sort(self, **kwargs):
        self._force()
        list.sort(self, **kwargs)

    def reverse(self):
        self._force()
        list.reverse(self)

    def copy(self):
        self._force()
        return list(self)

    def __repr__(self):
        if self._lazy is not None:
            return "<lazy instrs (%d undecoded)>" % self._lazy[2]
        return list.__repr__(self)

    def __reduce__(self):
        self._force()
        return (list, (list(self),))


class _LazyAnnotations(dict):
    """Annotation map decoded on first access.

    Same discipline as :class:`_LazyInstrs`; ``__len__`` (and hence
    truthiness) answers from the encoded entry count.  Note CPython's
    ``dict(d)``/``{**d}`` honour an overridden ``keys``/``__iter__``
    on dict *subclasses*, so copies made by ``Routine.copy`` see the
    decoded content.
    """

    __slots__ = ("_lazy",)

    def __init__(self, buf: bytes, start: int, count: int,
                 strings: List[str]) -> None:
        dict.__init__(self)
        self._lazy = (buf, start, count, strings)

    def _force(self) -> None:
        state = self._lazy
        if state is None:
            return
        self._lazy = None
        buf, start, count, strings = state
        try:
            _decode_annotations(buf, start, count, strings, self)
        except IndexError:
            raise CompactionError(
                "truncated relocatable data in annotations "
                "(buffer end at offset %d)" % len(buf),
                offset=len(buf), field="annotations",
            ) from None

    def materialized(self) -> bool:
        return self._lazy is None

    def __len__(self):
        state = self._lazy
        if state is None:
            return dict.__len__(self)
        return state[2]

    def __bool__(self):
        return self.__len__() > 0

    def __getitem__(self, key):
        self._force()
        return dict.__getitem__(self, key)

    def __setitem__(self, key, value):
        self._force()
        dict.__setitem__(self, key, value)

    def __delitem__(self, key):
        self._force()
        dict.__delitem__(self, key)

    def __contains__(self, key):
        self._force()
        return dict.__contains__(self, key)

    def __iter__(self):
        self._force()
        return dict.__iter__(self)

    def __eq__(self, other):
        self._force()
        return dict.__eq__(self, other)

    def __ne__(self, other):
        self._force()
        return dict.__ne__(self, other)

    __hash__ = None

    def get(self, key, default=None):
        self._force()
        return dict.get(self, key, default)

    def setdefault(self, key, default=None):
        self._force()
        return dict.setdefault(self, key, default)

    def pop(self, *args):
        self._force()
        return dict.pop(self, *args)

    def popitem(self):
        self._force()
        return dict.popitem(self)

    def update(self, *args, **kwargs):
        self._force()
        dict.update(self, *args, **kwargs)

    def clear(self):
        self._lazy = None
        dict.clear(self)

    def keys(self):
        self._force()
        return dict.keys(self)

    def values(self):
        self._force()
        return dict.values(self)

    def items(self):
        self._force()
        return dict.items(self)

    def copy(self):
        self._force()
        return dict(self)

    def __repr__(self):
        if self._lazy is not None:
            return "<lazy annotations (%d undecoded)>" % self._lazy[2]
        return dict.__repr__(self)

    def __reduce__(self):
        self._force()
        return (dict, (dict(self),))


def uncompact_routine(
    data,
    symtab: ProgramSymbolTable,
    intern: Optional[InternPool] = None,
    lazy: bool = False,
) -> Routine:
    """Rebuild an expanded routine from relocatable bytes (eager swizzle).

    ``data`` may be any bytes-like object (``memoryview`` slices over
    pack-segment mmaps included); it is snapshot to ``bytes`` once so
    decode runs on the fast indexing path and the returned routine
    never pins the caller's buffer.

    ``intern`` routes string-table decodes through a per-repository
    :class:`~repro.naim.intern.InternPool`, so hot strings (module
    names, labels, annotation keys) are decoded once per session.

    With ``lazy=True`` block bodies and annotations are located but
    not decoded; each materializes on first touch.  Routine metadata
    (name, params, labels, block/instruction counts) is always eager,
    so memory accounting and CFG-shape queries stay free.
    """
    buf = data if data.__class__ is bytes else bytes(data)
    section = "header"
    try:
        version, pos = _uv(buf, 0)
        if version != _VERSION:
            raise CompactionError("bad relocatable version %d" % version)
        count, pos = _uv(buf, pos)
        section = "string table"
        decode = intern.utf8 if intern is not None else _decode_utf8
        strings: List[str] = []
        strings_append = strings.append
        for _ in range(count):
            length, pos = _uv(buf, pos)
            end = pos + length
            raw = buf[pos:end]
            if len(raw) != length:
                raise CompactionError(
                    "truncated string table at offset %d" % pos,
                    offset=pos, field="string table",
                )
            strings_append(decode(raw))
            pos = end

        section = "routine header"
        pid, pos = _uv(buf, pos)
        try:
            name = symtab._name_by_pid[pid]
        except IndexError:
            name = symtab.name_of(pid)  # raises SymbolError
        at = pos
        index, pos = _uv(buf, pos)
        module_name = _string_at(strings, index, at, "module name")
        exported_v, pos = _uv(buf, pos)
        n_params, pos = _uv(buf, pos)
        next_reg, pos = _uv(buf, pos)
        source_lines, pos = _uv(buf, pos)
        at = pos
        index, pos = _uv(buf, pos)
        source_language = _string_at(strings, index, at, "source language")

        routine = Routine(
            name,
            module_name=module_name,
            n_params=n_params,
            exported=bool(exported_v),
            source_lines=source_lines,
            source_language=source_language,
        )

        section = "label table"
        n_blocks, pos = _uv(buf, pos)
        labels: List[str] = []
        labels_append = labels.append
        for _ in range(n_blocks):
            at = pos
            index, pos = _uv(buf, pos)
            labels_append(_string_at(strings, index, at, "block label"))

        section = "instruction stream"
        blocks_append = routine.blocks.append
        new = _NEW
        block_cls = BasicBlock
        if lazy:
            for label in labels:
                n_instrs, pos = _uv(buf, pos)
                start = pos
                pos = _skip_instr_run(buf, pos, n_instrs)
                block = new(block_cls)
                block.label = label
                block.instrs = _LazyInstrs(buf, start, n_instrs, labels,
                                           symtab)
                blocks_append(block)
        else:
            for label in labels:
                n_instrs, pos = _uv(buf, pos)
                block = new(block_cls)
                block.label = label
                instrs: List[Instr] = []
                pos = _decode_instr_run(buf, pos, n_instrs, labels, symtab,
                                        instrs)
                block.instrs = instrs
                blocks_append(block)
        routine.next_reg = next_reg

        section = "annotations"
        n_annotations, pos = _uv(buf, pos)
        if n_annotations:
            if lazy:
                routine.annotations = _LazyAnnotations(
                    buf, pos, n_annotations, strings
                )
            else:
                _decode_annotations(buf, pos, n_annotations, strings,
                                    routine.annotations)
        routine.invalidate()
        return routine
    except IndexError:
        raise CompactionError(
            "truncated relocatable data in %s (buffer end at offset %d)"
            % (section, len(buf)),
            offset=len(buf), field=section,
        ) from None


def _decode_utf8(raw: bytes) -> str:
    return raw.decode("utf-8")


# -- Module symbol-table compaction -------------------------------------------------


def compact_symtab_reference(
    symtab: ModuleSymbolTable, program: ProgramSymbolTable
) -> bytes:
    """Reference encoder for module symbol tables (format spec)."""
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


def compact_symtab(symtab: ModuleSymbolTable,
                   program: ProgramSymbolTable) -> bytes:
    """Encode a module symbol table into relocatable form (batched)."""
    strings: List[str] = []
    sindex: Dict[str, int] = {}

    def sref(text: str) -> int:
        index = sindex.get(text)
        if index is None:
            index = len(strings)
            strings.append(text)
            sindex[text] = index
        return index

    pid_of = program.pid_of
    vals: List[int] = [sref(symtab.module_name), len(symtab.globals)]
    append = vals.append
    for var in symtab.globals.values():
        append(pid_of(var.name))
        append(var.size)
        append(1 if var.exported else 0)
        # Run-length encode trailing zeros: most arrays are zero-filled.
        init = var.init
        significant = len(init)
        while significant and init[significant - 1] == 0:
            significant -= 1
        append(significant)
        for value in init[:significant]:
            append((value << 1) ^ (value >> 63))
    append(len(symtab.routine_names))
    for name in symtab.routine_names:
        append(pid_of(name))
    append(len(symtab.extern_refs))
    for name in symtab.extern_refs:
        append(pid_of(name))
    return _finish_batched(strings, vals)


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


def uncompact_symtab(
    data,
    program: ProgramSymbolTable,
    intern: Optional[InternPool] = None,
) -> ModuleSymbolTable:
    """Rebuild an expanded module symbol table (batched decoder)."""
    buf = data if data.__class__ is bytes else bytes(data)
    section = "header"
    try:
        version, pos = _uv(buf, 0)
        if version != _VERSION:
            raise CompactionError("bad relocatable version %d" % version)
        count, pos = _uv(buf, pos)
        section = "string table"
        decode = intern.utf8 if intern is not None else _decode_utf8
        strings: List[str] = []
        for _ in range(count):
            length, pos = _uv(buf, pos)
            end = pos + length
            raw = buf[pos:end]
            if len(raw) != length:
                raise CompactionError(
                    "truncated string table at offset %d" % pos,
                    offset=pos, field="string table",
                )
            strings.append(decode(raw))
            pos = end

        section = "symtab body"
        names = program._name_by_pid
        name_of = program.name_of
        at = pos
        index, pos = _uv(buf, pos)
        symtab = ModuleSymbolTable(
            _string_at(strings, index, at, "module name")
        )
        n_globals, pos = _uv(buf, pos)
        for _ in range(n_globals):
            pid, pos = _uv(buf, pos)
            try:
                name = names[pid]
            except IndexError:
                name = name_of(pid)
            size, pos = _uv(buf, pos)
            exported_v, pos = _uv(buf, pos)
            significant, pos = _uv(buf, pos)
            init: List[int] = []
            init_append = init.append
            for _v in range(significant):
                value, pos = _uv(buf, pos)
                init_append((value >> 1) ^ -(value & 1))
            init.extend([0] * (size - significant))
            var = GlobalVar(name, size=size, init=init,
                            exported=bool(exported_v))
            symtab.define_global(var)
            var.defining_module = symtab.module_name
        n_routines, pos = _uv(buf, pos)
        routines_append = symtab.routine_names.append
        for _ in range(n_routines):
            pid, pos = _uv(buf, pos)
            try:
                routines_append(names[pid])
            except IndexError:
                routines_append(name_of(pid))
        n_externs, pos = _uv(buf, pos)
        externs_append = symtab.extern_refs.append
        for _ in range(n_externs):
            pid, pos = _uv(buf, pos)
            try:
                externs_append(names[pid])
            except IndexError:
                externs_append(name_of(pid))
        return symtab
    except IndexError:
        raise CompactionError(
            "truncated relocatable data in %s (buffer end at offset %d)"
            % (section, len(buf)),
            offset=len(buf), field=section,
        ) from None


# -- Structural equality helpers (tests) -----------------------------------------------


def routines_equal(a: Routine, b: Routine) -> bool:
    """Deep structural equality of two routines (ignores derived data)."""
    if (
        a.name != b.name
        or a.module_name != b.module_name
        or a.n_params != b.n_params
        or a.next_reg != b.next_reg
        or a.exported != b.exported
        or a.source_lines != b.source_lines
        or len(a.blocks) != len(b.blocks)
    ):
        return False
    for block_a, block_b in zip(a.blocks, b.blocks):
        if block_a.label != block_b.label:
            return False
        if len(block_a.instrs) != len(block_b.instrs):
            return False
        for instr_a, instr_b in zip(block_a.instrs, block_b.instrs):
            if instr_a != instr_b:
                return False
    return True
