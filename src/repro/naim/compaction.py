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

The codec is *batched*: ``compact_routine`` collects a whole
routine's field values and emits them in bulk runs, and
``uncompact_routine`` consumes them through an opcode-shape dispatch
table instead of a per-opcode if-chain.  Roughly 95% of encoded values
fit in one byte, so the encoder flushes maximal ``0..127`` runs through
``bytes()`` in C (measured faster than an equivalent
``struct.Struct("<NB")`` pack because no format object needs sizing per
run) and the decoder inlines the one-byte fast path.  Decode is always
eager: every block and annotation is materialized when the pool is.

The per-field codec it replaced lives on as the format specification in
``tests/naim/reference_codec.py`` (on :class:`Writer` / :class:`Reader`,
which the object-file format uses too); the dual-codec property test
(``tests/property/test_prop_codec.py``) and the ``perf-smoke`` CI job
hold the two byte-identical.  Malformed bytes -- truncation, a bad
opcode, label or string index, invalid UTF-8 in the string table -- are
a :class:`CompactionError` naming the field and offset; a PID the
program symbol table does not know is its ``SymbolError``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

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
        self.strings, self.pos = _read_string_table(data, self.pos,
                                                    bytes.decode)

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


def _read_string_table(buf: bytes, pos: int,
                       decode: Callable[[bytes], str]) -> Tuple[List[str], int]:
    """Read the string table at ``pos``; returns (strings, next position).

    The table is a count, then that many length-prefixed UTF-8 strings;
    ``decode`` is ``bytes.decode`` or an :class:`InternPool`'s ``utf8``.
    Running off the buffer and invalid UTF-8 are both a
    :class:`CompactionError` on the ``"string table"`` field.
    """
    strings: List[str] = []
    append = strings.append
    try:
        count, pos = _uv(buf, pos)
        for _ in range(count):
            length, pos = _uv(buf, pos)
            end = pos + length
            raw = buf[pos:end]
            if len(raw) != length:
                raise CompactionError(
                    "truncated string table at offset %d" % pos,
                    offset=pos, field="string table",
                )
            append(decode(raw))
            pos = end
    except IndexError:
        raise CompactionError(
            "truncated string table (buffer end at offset %d)" % len(buf),
            offset=len(buf), field="string table",
        ) from None
    except UnicodeDecodeError as exc:
        at = pos + exc.start
        raise CompactionError(
            "invalid UTF-8 in string table at offset %d" % at,
            offset=at, field="string table",
        ) from None
    return strings, pos


# -- Routine compaction ---------------------------------------------------------


def compact_routine(routine: Routine, symtab: ProgramSymbolTable) -> bytes:
    """Encode a routine into its relocatable form.

    Symbol references are swizzled to PIDs; block labels become indices;
    derived data is *not* represented (recompute-on-demand discipline).
    Byte-identical to the per-field reference encoder, but batched:
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
    caller (it knows the enclosing field).
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


def uncompact_routine(
    data,
    symtab: ProgramSymbolTable,
    intern: Optional[InternPool] = None,
) -> Routine:
    """Rebuild an expanded routine from relocatable bytes (eager swizzle).

    ``data`` may be any bytes-like object (``memoryview`` slices over
    pack-segment mmaps included); it is snapshot to ``bytes`` once so
    decode runs on the fast indexing path and the returned routine
    never pins the caller's buffer.

    ``intern`` routes string-table decodes through a per-repository
    :class:`~repro.naim.intern.InternPool`, so hot strings (module
    names, labels, annotation keys) are decoded once per session.
    """
    buf = data if data.__class__ is bytes else bytes(data)
    section = "header"
    try:
        version, pos = _uv(buf, 0)
        if version != _VERSION:
            raise CompactionError("bad relocatable version %d" % version)
        strings, pos = _read_string_table(
            buf, pos, intern.utf8 if intern is not None else bytes.decode
        )

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


# -- Module symbol-table compaction -------------------------------------------------


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
        strings, pos = _read_string_table(
            buf, pos, intern.utf8 if intern is not None else bytes.decode
        )

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
