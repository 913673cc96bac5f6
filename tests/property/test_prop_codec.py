"""Property tests for the dual IL codecs and zero-copy pack decode.

The batched codec in :mod:`repro.naim.compaction` exists purely for
speed; the per-field codec in ``tests/naim/reference_codec.py`` (on
:class:`Writer`/:class:`Reader`) is the format specification.  The
invariants:

* for ANY routine -- every opcode, annotations of both kinds, empty
  blocks, no blocks at all -- the batched encoder emits bytes
  identical to the reference encoder;
* both decoders (the batched one also interned and from ``memoryview``
  input) rebuild structurally identical routines whose blocks hold
  plain lists, and re-compacting what they built reproduces the
  original bytes;
* a ``memoryview`` handed out by a zero-copy repository fetch stays
  valid across segment compaction (retired mmaps are pinned until the
  view is released).
"""

from __future__ import annotations

import os
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.basic_block import BasicBlock
from repro.ir.instructions import Instr, Opcode
from repro.ir.routine import Routine
from repro.ir.symbols import GlobalVar, ModuleSymbolTable, ProgramSymbolTable
from repro.naim.compaction import (
    _BINARY_SET,
    _OPCODE_INDEX,
    _OPCODE_LIST,
    compact_routine,
    compact_symtab,
    routines_equal,
    uncompact_routine,
    uncompact_symtab,
)
from repro.naim.intern import InternPool
from repro.naim.repository import Repository

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "naim"))

from reference_codec import (  # noqa: E402
    compact_routine_reference,
    compact_symtab_reference,
    uncompact_routine_reference,
    uncompact_symtab_reference,
)

REGS = st.integers(min_value=0, max_value=500)
OPT_REGS = st.one_of(st.none(), REGS)
SYMS = st.sampled_from(["g0", "g_table", "fn_main", "fn_helper", "ext"])
IMMS = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)


def _instr_strategy(labels):
    """One random instruction addressing ``labels`` (every opcode)."""

    def build(draw):
        op = draw(st.sampled_from(_OPCODE_LIST))
        code = _OPCODE_INDEX[op]
        if op is Opcode.CONST:
            return Instr(op, dst=draw(REGS), imm=draw(IMMS))
        if op in (Opcode.MOV, Opcode.NEG, Opcode.NOT):
            return Instr(op, dst=draw(REGS), a=draw(REGS))
        if code in _BINARY_SET:
            return Instr(op, dst=draw(REGS), a=draw(REGS), b=draw(REGS))
        if op is Opcode.LOADG:
            return Instr(op, dst=draw(REGS), sym=draw(SYMS))
        if op is Opcode.STOREG:
            return Instr(op, sym=draw(SYMS), a=draw(REGS))
        if op is Opcode.LOADE:
            return Instr(op, dst=draw(REGS), sym=draw(SYMS), a=draw(REGS))
        if op is Opcode.STOREE:
            return Instr(op, sym=draw(SYMS), a=draw(REGS), b=draw(REGS))
        if op is Opcode.CALL:
            return Instr(
                op, dst=draw(OPT_REGS), sym=draw(SYMS),
                args=tuple(draw(st.lists(REGS, max_size=5))),
            )
        if op is Opcode.RET:
            return Instr(op, a=draw(OPT_REGS))
        if op is Opcode.BR:
            return Instr(op, a=draw(REGS),
                         targets=(draw(st.sampled_from(labels)),
                                  draw(st.sampled_from(labels))))
        if op is Opcode.JMP:
            return Instr(op, targets=(draw(st.sampled_from(labels)),))
        assert op is Opcode.PROBE
        return Instr(op, imm=draw(st.integers(0, 2 ** 32)))

    return st.composite(lambda draw: build(draw))()


@st.composite
def routines(draw):
    index = draw(st.integers(0, 10 ** 6))
    routine = Routine(
        "fn%d" % index,
        module_name=draw(st.sampled_from(["alpha", "beta", ""])),
        n_params=draw(st.integers(0, 6)),
        exported=draw(st.booleans()),
        source_lines=draw(st.integers(0, 5000)),
        source_language=draw(st.sampled_from(["mll", "mfl"])),
    )
    n_blocks = draw(st.integers(0, 4))
    labels = ["L%d" % block for block in range(n_blocks)]
    for label in labels:
        block = BasicBlock(label)
        # max_size=0 rows keep empty blocks in the corpus.
        block.instrs.extend(draw(st.lists(
            _instr_strategy(labels), max_size=6,
        )))
        routine.blocks.append(block)
    routine.next_reg = 501
    for key, value in draw(st.dictionaries(
        st.sampled_from(["inline_cost", "hot", "origin", "note"]),
        st.one_of(IMMS, st.sampled_from(["yes", "synthetic", ""])),
        max_size=4,
    )).items():
        routine.annotations[key] = value
    return routine


@settings(max_examples=150, deadline=None)
@given(routines())
def test_codecs_byte_identical_and_roundtrip(routine):
    symtab = ProgramSymbolTable()
    reference = compact_routine_reference(routine, symtab)
    batched = compact_routine(routine, symtab)
    assert batched == reference

    decoded_reference = uncompact_routine_reference(reference, symtab)
    decoded_batched = uncompact_routine(batched, symtab)
    decoded_interned = uncompact_routine(
        memoryview(batched), symtab, intern=InternPool()
    )
    assert routines_equal(decoded_reference, routine)
    assert routines_equal(decoded_batched, routine)
    assert routines_equal(decoded_interned, routine)
    assert all(type(block.instrs) is list
               for block in decoded_interned.blocks)
    assert decoded_interned.annotations == {
        key: value for key, value in routine.annotations.items()
        if isinstance(value, (int, str))
    }
    # Re-compacting any decode reproduces the bytes.
    assert compact_routine(decoded_reference, symtab) == reference
    assert compact_routine(decoded_interned, symtab) == reference
    assert compact_routine_reference(decoded_batched, symtab) == reference


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["g0", "g1", "table", "buf"]),
            st.integers(1, 16),
            st.booleans(),
            st.lists(st.integers(-1000, 1000), max_size=6),
        ),
        max_size=4, unique_by=lambda row: row[0],
    ),
    st.lists(SYMS, max_size=4, unique=True),
    st.lists(SYMS, max_size=4, unique=True),
)
def test_symtab_codecs_byte_identical(globals_spec, routine_names, externs):
    program = ProgramSymbolTable()
    symtab = ModuleSymbolTable("mod")
    for name, size, exported, init in globals_spec:
        padded = (init + [0] * size)[:size]
        symtab.define_global(
            GlobalVar(name, size=size, init=padded, exported=exported)
        )
    symtab.routine_names.extend(routine_names)
    symtab.extern_refs.extend(externs)

    reference = compact_symtab_reference(symtab, program)
    batched = compact_symtab(symtab, program)
    assert batched == reference

    decoded_reference = uncompact_symtab_reference(reference, program)
    decoded_batched = uncompact_symtab(
        memoryview(batched), program, intern=InternPool()
    )
    assert decoded_reference.module_name == decoded_batched.module_name
    assert [
        (var.name, var.size, list(var.init), var.exported)
        for var in decoded_reference.globals.values()
    ] == [
        (var.name, var.size, list(var.init), var.exported)
        for var in decoded_batched.globals.values()
    ]
    assert decoded_reference.routine_names == decoded_batched.routine_names
    assert decoded_reference.extern_refs == decoded_batched.extern_refs
    assert compact_symtab(decoded_batched, program) == reference


class TestZeroCopyViewLifetime:
    def _packed_repo(self, tmp_path):
        # compress_level=0 so fetches return mmap-backed memoryviews.
        return Repository(directory=str(tmp_path / "repo"),
                          compress_level=0, segment_bytes=64 * 1024)

    def test_view_survives_compaction(self, tmp_path):
        repository = self._packed_repo(tmp_path)
        payload = bytes(range(256)) * 8
        repository.store("ir", "keep", payload)
        for index in range(20):
            repository.store("ir", "dead%d" % index, b"x" * 512)
        repository.flush()  # seal -> reads become mmap views

        view = repository.fetch("ir", "keep")
        assert isinstance(view, memoryview)
        assert bytes(view) == payload

        for index in range(20):
            repository.discard("ir", "dead%d" % index)
        freed = repository.compact_segments()
        assert freed > 0
        # The live view still reads the original bytes: the retired
        # mmap stays pinned rather than being closed under the view.
        assert bytes(view) == payload
        assert repository.io_stats()["retired_segments"] >= 1

        view.release()
        assert repository.release_retired() >= 1
        assert repository.io_stats()["retired_segments"] == 0
        # The entry itself is still fetchable from the new segments.
        assert bytes(repository.fetch("ir", "keep")) == payload
        repository.close()

    def test_maybe_compact_releases_unpinned_views(self, tmp_path):
        repository = self._packed_repo(tmp_path)
        repository.store("ir", "a", b"a" * 4096)
        repository.store("ir", "b", b"b" * 4096)
        repository.flush()
        view = repository.fetch("ir", "a")
        repository.discard("ir", "b")
        repository.compact_segments()
        assert repository.io_stats()["retired_segments"] == 1
        view.release()
        # The daemon's between-requests hook is maybe_compact(); it
        # must sweep retired mappings even when nothing is reclaimable.
        repository.maybe_compact()
        assert repository.io_stats()["retired_segments"] == 0
        repository.close()

    def test_fetch_many_returns_views_over_sealed_segments(self, tmp_path):
        repository = self._packed_repo(tmp_path)
        repository.store("ir", "x", b"x" * 1024)
        repository.store("ir", "y", b"y" * 1024)
        repository.flush()
        out = repository.fetch_many([("ir", "x"), ("ir", "y")])
        assert all(isinstance(data, memoryview) for data in out.values())
        assert bytes(out[("ir", "x")]) == b"x" * 1024
        repository.close()
