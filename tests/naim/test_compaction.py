"""Unit tests for compaction / uncompaction (PID swizzling)."""

import pytest

from repro.frontend import compile_sources
from repro.naim.compaction import (
    CompactionError,
    Reader,
    Writer,
    compact_routine,
    compact_symtab,
    routines_equal,
    uncompact_routine,
    uncompact_symtab,
    zigzag_decode,
    zigzag_encode,
)
from repro.naim.intern import InternPool

SOURCES = {
    "lib": """
global counter = 0;
static global table[6] = {1, -2, 3, 0, 0, 0};

func widget(a, b) {
    var acc = a;
    while (acc < b) {
        if (acc % 2 == 0) { acc = acc + table[acc % 6]; }
        else { counter = counter + 1; acc = acc + 1; }
    }
    return acc;
}
""",
    "main": "func main() { return widget(1, 20); }",
}


def program():
    return compile_sources(SOURCES)


class TestVarints:
    @pytest.mark.parametrize("value", [0, 1, -1, 63, -64, 2**62, -(2**63),
                                       2**63 - 1])
    def test_zigzag_round_trip(self, value):
        assert zigzag_decode(zigzag_encode(value)) == value

    def test_zigzag_non_negative_encoding(self):
        for value in (-5, -1, 0, 1, 5, -(2**63), 2**63 - 1):
            assert zigzag_encode(value) >= 0

    def test_writer_reader_round_trip(self):
        writer = Writer()
        writer.u(0)
        writer.u(300)
        writer.s(-12345)
        writer.opt_reg(None)
        writer.opt_reg(7)
        writer.string_ref("hello")
        writer.string_ref("world")
        writer.string_ref("hello")  # deduplicated
        data = writer.finish()
        reader = Reader(data)
        assert reader.u() == 0
        assert reader.u() == 300
        assert reader.s() == -12345
        assert reader.opt_reg() is None
        assert reader.opt_reg() == 7
        assert reader.string_ref() == "hello"
        assert reader.string_ref() == "world"
        assert reader.string_ref() == "hello"

    def test_truncated_data(self):
        writer = Writer()
        writer.u(1000000)
        data = writer.finish()
        with pytest.raises(CompactionError):
            Reader(data[:-1]).u()

    def test_negative_unsigned_rejected(self):
        with pytest.raises(CompactionError):
            Writer().u(-1)


class TestRoutineRoundTrip:
    def test_all_routines(self):
        prog = program()
        symtab = prog.symtab
        for routine in prog.all_routines():
            data = compact_routine(routine, symtab)
            restored = uncompact_routine(data, symtab)
            assert routines_equal(routine, restored)

    def test_annotations_survive(self):
        prog = program()
        routine = prog.routine("widget")
        routine.annotations["inline_serial"] = 3
        routine.annotations["inlined_from"] = "x,y"
        routine.annotations["ignored_object"] = object()  # not encodable
        restored = uncompact_routine(
            compact_routine(routine, prog.symtab), prog.symtab
        )
        assert restored.annotations["inline_serial"] == 3
        assert restored.annotations["inlined_from"] == "x,y"
        assert "ignored_object" not in restored.annotations

    def test_compact_much_smaller_than_expanded(self):
        from repro.naim.memory import expanded_routine_bytes

        prog = program()
        routine = prog.routine("widget")
        data = compact_routine(routine, prog.symtab)
        assert len(data) * 4 < expanded_routine_bytes(routine)

    def test_derived_data_not_persisted(self):
        prog = program()
        routine = prog.routine("widget")
        routine.predecessors()  # populate derived cache
        restored = uncompact_routine(
            compact_routine(routine, prog.symtab), prog.symtab
        )
        assert len(restored.derived) == 0

    def test_pids_shared_across_pools(self):
        """Two routines referencing the same global use the same PID."""
        prog = program()
        symtab = prog.symtab
        pid_before = symtab.pid_of("counter")
        for routine in prog.all_routines():
            compact_routine(routine, symtab)
        assert symtab.pid_of("counter") == pid_before

    def test_corrupt_data_raises(self):
        prog = program()
        data = compact_routine(prog.routine("widget"), prog.symtab)
        with pytest.raises(CompactionError):
            uncompact_routine(b"\x07garbage", prog.symtab)
        with pytest.raises((CompactionError, Exception)):
            uncompact_routine(data[: len(data) // 2], prog.symtab)


class TestSymtabRoundTrip:
    def test_round_trip(self):
        prog = program()
        symtab = prog.modules["lib"].symtab
        data = compact_symtab(symtab, prog.symtab)
        restored = uncompact_symtab(data, prog.symtab)
        assert restored.module_name == "lib"
        assert set(restored.globals) == set(symtab.globals)
        table = restored.globals["lib::table"]
        assert table.init == (1, -2, 3, 0, 0, 0)
        assert restored.routine_names == symtab.routine_names

    def test_trailing_zero_compression(self):
        prog = program()
        lib = prog.modules["lib"].symtab
        data = compact_symtab(lib, prog.symtab)
        # Array has 3 trailing zeros: encoding stores only 3 values.
        # Rough check: compact form is small.
        assert len(data) < 200


class TestStructuredErrors:
    def test_truncated_names_offset_and_field(self):
        prog = program()
        data = compact_routine(prog.routine("widget"), prog.symtab)
        with pytest.raises(CompactionError) as excinfo:
            uncompact_routine(data[: len(data) - 3], prog.symtab)
        assert excinfo.value.offset is not None
        assert excinfo.value.field is not None
        assert str(excinfo.value.offset) in str(excinfo.value)

    def test_bad_label_index_is_structured(self):
        from repro.ir.basic_block import BasicBlock
        from repro.ir.instructions import Instr, Opcode
        from repro.ir.routine import Routine
        from repro.ir.symbols import ProgramSymbolTable
        from reference_codec import uncompact_routine_reference

        symtab = ProgramSymbolTable()
        routine = Routine("jumper")
        block = BasicBlock("entry")
        block.instrs.append(Instr(Opcode.JMP, targets=("entry",)))
        routine.blocks.append(block)
        data = bytearray(compact_routine(routine, symtab))
        # The final varints are the JMP's label index (0) followed by
        # the annotation count; corrupt the label index.
        assert data[-2] == 0
        data[-2] = 0x7F
        for decode in (uncompact_routine, uncompact_routine_reference):
            with pytest.raises(CompactionError) as excinfo:
                decode(bytes(data), symtab)
            assert "label index" in str(excinfo.value)

    @pytest.mark.parametrize("decoder, interned", [
        ("routine", False), ("routine", True),
        ("symtab", False), ("symtab", True),
        ("reader", False),  # Reader takes no InternPool
    ])
    def test_a_damaged_string_table_is_structured(self, decoder, interned):
        prog = program()
        symtab = prog.symtab
        intern = InternPool() if interned else None
        decode = {
            "routine": lambda data: uncompact_routine(data, symtab,
                                                      intern=intern),
            "symtab": lambda data: uncompact_symtab(data, symtab,
                                                    intern=intern),
            "reader": Reader,
        }[decoder]
        data = compact_symtab(prog.modules["lib"].symtab, symtab)
        # version, count, length, then the first string's first byte.
        assert data[:2] == bytes([2, 1]) and data[3:6] == b"lib"
        bad = bytearray(data)
        bad[3] = 0xFF
        with pytest.raises(CompactionError) as excinfo:
            decode(bytes(bad))
        assert excinfo.value.field == "string table"
        assert excinfo.value.offset == 3
        for cut in range(2, 6):  # inside the table: truncated
            with pytest.raises(CompactionError) as excinfo:
                decode(data[:cut])
            assert excinfo.value.field == "string table"

    def test_reader_underflow_is_structured(self):
        with pytest.raises(CompactionError) as excinfo:
            Reader(b"")
        assert excinfo.value.field == "varint"
        reader = Reader(compact_routine(program().routine("widget"),
                                        program().symtab))
        reader.pos = len(reader.data)
        with pytest.raises(CompactionError):
            reader.u()

    def test_memoryview_input_accepted(self):
        prog = program()
        routine = prog.routine("widget")
        data = compact_routine(routine, prog.symtab)
        assert routines_equal(
            uncompact_routine(memoryview(data), prog.symtab), routine
        )
        assert Reader(memoryview(data)).strings == Reader(data).strings
