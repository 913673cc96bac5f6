"""Unit tests for IL instruction semantics and structure."""

import pytest

from repro.ir.instructions import (
    BINARY_FOLDS,
    BINARY_OPS,
    COMMUTATIVE_OPS,
    Instr,
    Opcode,
    fold_binary,
    fold_unary,
    sdiv64,
    smod64,
    wrap64,
)


class TestWrap64:
    def test_identity_in_range(self):
        assert wrap64(42) == 42
        assert wrap64(-42) == -42

    def test_max_positive(self):
        assert wrap64(2**63 - 1) == 2**63 - 1

    def test_overflow_wraps_negative(self):
        assert wrap64(2**63) == -(2**63)

    def test_underflow_wraps_positive(self):
        assert wrap64(-(2**63) - 1) == 2**63 - 1

    def test_large_product(self):
        assert wrap64((2**40) * (2**40)) == 0


class TestDivMod:
    def test_truncates_toward_zero(self):
        assert sdiv64(7, 2) == 3
        assert sdiv64(-7, 2) == -3
        assert sdiv64(7, -2) == -3
        assert sdiv64(-7, -2) == 3

    def test_divide_by_zero_is_zero(self):
        assert sdiv64(5, 0) == 0
        assert smod64(5, 0) == 0

    def test_mod_sign_follows_dividend(self):
        assert smod64(7, 3) == 1
        assert smod64(-7, 3) == -1
        assert smod64(7, -3) == 1

    def test_div_mod_identity(self):
        for a in (-17, -5, 0, 3, 29):
            for b in (-4, -1, 2, 7):
                assert sdiv64(a, b) * b + smod64(a, b) == a


class TestFolding:
    def test_add_wraps(self):
        assert fold_binary(Opcode.ADD, 2**63 - 1, 1) == -(2**63)

    def test_shift_masks_amount(self):
        assert fold_binary(Opcode.SHL, 1, 64) == 1  # 64 & 63 == 0
        assert fold_binary(Opcode.SHL, 1, 65) == 2

    def test_arithmetic_shift_right(self):
        assert fold_binary(Opcode.SHR, -8, 1) == -4

    def test_comparisons_produce_bool_ints(self):
        assert fold_binary(Opcode.LT, 1, 2) == 1
        assert fold_binary(Opcode.GE, 1, 2) == 0

    def test_unary(self):
        assert fold_unary(Opcode.NEG, 5) == -5
        assert fold_unary(Opcode.NOT, 0) == -1
        assert fold_unary(Opcode.MOV, 9) == 9

    def test_fold_binary_rejects_non_binary(self):
        for op in set(Opcode) - BINARY_OPS:
            with pytest.raises(ValueError, match="not a binary opcode"):
                fold_binary(op, 1, 2)

    def test_commutative_ops_commute(self):
        for op in COMMUTATIVE_OPS:
            assert fold_binary(op, 13, -7) == fold_binary(op, -7, 13)


INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class TestFoldTable:
    def test_one_fold_per_binary_opcode(self):
        assert set(BINARY_FOLDS) == BINARY_OPS

    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            (Opcode.DIV, INT64_MIN, -1, INT64_MIN),
            (Opcode.MOD, INT64_MIN, -1, 0),
            (Opcode.MUL, INT64_MIN, -1, INT64_MIN),
            (Opcode.SUB, 0, INT64_MIN, INT64_MIN),
            (Opcode.ADD, INT64_MAX, 1, INT64_MIN),
            (Opcode.DIV, 7, 0, 0),
            (Opcode.DIV, INT64_MIN, 0, 0),
            (Opcode.MOD, 7, 0, 0),
            (Opcode.MOD, -7, 0, 0),
            (Opcode.SHL, 1, 64, 1),
            (Opcode.SHL, 1, 127, INT64_MIN),
            (Opcode.SHL, -1, 200, -(2**8)),
            (Opcode.SHR, INT64_MIN, 64, INT64_MIN),
            (Opcode.SHR, INT64_MIN, 127, -1),
            (Opcode.SHR, INT64_MAX, 65, 2**62 - 1),
            (Opcode.AND, -1, INT64_MIN, INT64_MIN),
            (Opcode.OR, 2**64, 1, 1),
            (Opcode.XOR, INT64_MAX, -1, INT64_MIN),
        ],
    )
    def test_fold_binary_and_the_table_agree_on_edges(self, op, a, b, expected):
        assert fold_binary(op, a, b) == BINARY_FOLDS[op](a, b) == expected

    def test_every_fold_wraps_like_the_plain_operator(self):
        spec = {
            Opcode.ADD: lambda a, b: wrap64(a + b),
            Opcode.SUB: lambda a, b: wrap64(a - b),
            Opcode.MUL: lambda a, b: wrap64(a * b),
            Opcode.DIV: sdiv64,
            Opcode.MOD: smod64,
            Opcode.AND: lambda a, b: wrap64(a & b),
            Opcode.OR: lambda a, b: wrap64(a | b),
            Opcode.XOR: lambda a, b: wrap64(a ^ b),
            Opcode.SHL: lambda a, b: wrap64(a << (b & 63)),
            Opcode.SHR: lambda a, b: wrap64(a >> (b & 63)),
            Opcode.EQ: lambda a, b: int(a == b),
            Opcode.NE: lambda a, b: int(a != b),
            Opcode.LT: lambda a, b: int(a < b),
            Opcode.LE: lambda a, b: int(a <= b),
            Opcode.GT: lambda a, b: int(a > b),
            Opcode.GE: lambda a, b: int(a >= b),
        }
        edges = (0, 1, -1, 63, 64, 65, INT64_MIN, INT64_MAX, 2**64 + 3)
        for op, fold in BINARY_FOLDS.items():
            for a in edges:
                for b in edges:
                    assert fold(a, b) == fold_binary(op, a, b) == spec[op](a, b)


class TestInstr:
    def test_uses(self):
        instr = Instr(Opcode.ADD, dst=3, a=1, b=2)
        assert list(instr.uses()) == [1, 2]
        assert instr.use_mask() == 0b110

    def test_call_uses_args(self):
        instr = Instr(Opcode.CALL, dst=5, sym="f", args=(1, 2, 3))
        assert sorted(instr.uses()) == [1, 2, 3]
        assert instr.use_mask() == 0b1110
        assert Instr(Opcode.CONST, dst=0, imm=4).use_mask() == 0

    def test_replace_uses(self):
        instr = Instr(Opcode.CALL, dst=5, sym="f", args=(1, 2))
        instr.replace_uses({1: 9, 2: 8})
        assert instr.args == (9, 8)

    def test_replace_uses_leaves_dst(self):
        instr = Instr(Opcode.ADD, dst=1, a=1, b=2)
        instr.replace_uses({1: 7})
        assert instr.dst == 1 and instr.a == 7

    def test_copy_is_independent(self):
        instr = Instr(Opcode.BR, a=1, targets=("t", "f"))
        clone = instr.copy()
        clone.targets = ("x", "y")
        assert instr.targets == ("t", "f")

    def test_equality(self):
        a = Instr(Opcode.CONST, dst=0, imm=5)
        b = Instr(Opcode.CONST, dst=0, imm=5)
        c = Instr(Opcode.CONST, dst=0, imm=6)
        assert a == b and a != c

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Instr(Opcode.CONST, dst=0, imm=1))

    def test_side_effects(self):
        assert Instr(Opcode.STOREG, sym="g", a=0).has_side_effects()
        assert Instr(Opcode.CALL, sym="f").has_side_effects()
        assert not Instr(Opcode.ADD, dst=0, a=1, b=2).has_side_effects()

    def test_terminator_classification(self):
        assert Instr(Opcode.RET).is_terminator()
        assert Instr(Opcode.JMP, targets=("x",)).is_terminator()
        assert not Instr(Opcode.CONST, dst=0, imm=0).is_terminator()

    def test_all_binary_ops_total(self):
        """Every binary op folds on tricky operand pairs without error."""
        for op in BINARY_OPS:
            for a, b in [(0, 0), (-1, 0), (2**63 - 1, -1), (-(2**63), -1)]:
                result = fold_binary(op, a, b)
                assert -(2**63) <= result < 2**63
