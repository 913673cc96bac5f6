"""Dependence-safety tests for the block scheduler."""

from repro.ir.instructions import Opcode
from repro.llo.lir import LirBlock
from repro.llo.schedule import _independent, schedule_block
from repro.vm.isa import MInstr, MOp


def ldg(rd, sym):
    return MInstr(MOp.LDG, rd=rd, sym=sym)


def stg(rs, sym):
    return MInstr(MOp.STG, rs1=rs, sym=sym)


def add(rd, a, b):
    return MInstr(MOp.ALU3, subop=Opcode.ADD, rd=rd, rs1=a, rs2=b)


def ldi(rd, value):
    return MInstr(MOp.LDI, rd=rd, imm=value)


class TestIndependence:
    def test_raw_dependence(self):
        producer = ldi(1, 5)
        consumer = add(2, 1, 1)
        assert not _independent(producer, consumer)

    def test_waw_dependence(self):
        first = ldi(1, 5)
        second = ldi(1, 6)
        assert not _independent(first, second)

    def test_war_dependence(self):
        reader = add(2, 1, 1)
        writer = ldi(1, 9)
        assert not _independent(reader, writer)

    def test_reads_is_a_tuple_in_operand_order(self):
        assert add(3, 2, 1).reads() == (2, 1)
        assert add(3, 4, 4).reads() == (4, 4)
        assert stg(5, "g").reads() == (5,)
        assert ldi(1, 7).reads() == ()
        assert MInstr(MOp.STX, rs2=6, sym="a").reads() == (6,)

    def test_disjoint_registers_independent(self):
        assert _independent(ldi(1, 5), ldi(2, 6))

    def test_store_load_conflict(self):
        assert not _independent(stg(1, "g"), ldg(2, "g"))
        # Conservative: even different symbols conflict (global space).
        assert not _independent(stg(1, "g"), ldg(2, "h"))

    def test_loads_commute(self):
        assert _independent(ldg(1, "g"), ldg(2, "g"))

    def test_frame_slots_disambiguated(self):
        store0 = MInstr(MOp.STS, rs1=1, imm=0)
        load1 = MInstr(MOp.LDS, rd=2, imm=1)
        load0 = MInstr(MOp.LDS, rd=3, imm=0)
        assert _independent(store0, load1)  # different slots
        assert not _independent(store0, load0)  # same slot

    def test_calls_are_barriers(self):
        call = MInstr(MOp.CALL, sym="f")
        assert not _independent(call, ldg(1, "g"))
        assert not _independent(call, MInstr(MOp.ARG, rs1=1, imm=0))
        assert not _independent(call, MInstr(MOp.CALL, sym="g"))


class TestScheduleBlock:
    def test_fills_stall_with_independent_work(self):
        block = LirBlock("b")
        block.instrs = [
            ldg(1, "g"),
            add(2, 1, 1),  # stalls on the load
            ldi(3, 7),     # independent: can move up
        ]
        fills = schedule_block(block)
        assert fills == 1
        assert block.instrs[1].op is MOp.LDI

    def test_no_fill_when_all_dependent(self):
        block = LirBlock("b")
        block.instrs = [
            ldg(1, "g"),
            add(2, 1, 1),
            add(3, 2, 2),  # depends on the stalled add
        ]
        assert schedule_block(block) == 0

    def test_does_not_move_conflicting_store(self):
        block = LirBlock("b")
        block.instrs = [
            ldg(1, "g"),
            add(2, 1, 1),
            stg(2, "h"),  # reads r2 (defined by the add): cannot move up
        ]
        assert schedule_block(block) == 0

    def test_candidate_consuming_load_not_moved(self):
        block = LirBlock("b")
        block.instrs = [
            ldg(1, "g"),
            add(2, 1, 1),
            add(3, 1, 1),  # also consumes the load: moving it is useless
        ]
        assert schedule_block(block) == 0
