"""Unit tests for routines and their derived-data discipline."""

import pytest

import repro.ir.routine as routine_module
from repro.ir.basic_block import BasicBlock
from repro.ir.builder import IRBuilder
from repro.ir.errors import IRError
from repro.ir.instructions import Opcode
from repro.ir.routine import Routine


def make_diamond():
    """entry -> (left | right) -> join, returning a param-derived value.

    Block labels come out as entry0/left1/right2/join3 (the builder
    suffixes labels with the block index).
    """
    routine = Routine("diamond", n_params=1)
    builder = IRBuilder(routine)
    left = builder.new_block("left")
    right = builder.new_block("right")
    join = builder.new_block("join")
    zero = builder.const(0)
    cond = builder.binop(Opcode.GT, 0, zero)
    builder.br(cond, left, right)
    builder.position_at(left)
    one = builder.const(1)
    builder.jmp(join)
    builder.position_at(right)
    two = builder.const(2)
    builder.jmp(join)
    builder.position_at(join)
    builder.ret(0)
    return builder.finish()


class TestStructure:
    def test_entry_is_first_block(self):
        routine = make_diamond()
        assert routine.entry.label == "entry0"

    def test_no_blocks_raises(self):
        routine = Routine("empty")
        with pytest.raises(IRError):
            routine.entry

    def test_new_reg_monotone(self):
        routine = Routine("r", n_params=2)
        assert routine.new_reg() == 2
        assert routine.new_reg() == 3
        assert routine.param_regs() == (0, 1)

    def test_new_block_labels_unique(self):
        routine = Routine("r")
        labels = {routine.new_block("x").label for _ in range(10)}
        assert len(labels) == 10

    def test_new_block_skips_labels_in_use(self):
        """The first free ``<hint><n>`` from the block count on, whether
        the taken label came from an earlier call or from a block added
        by another mutation."""
        routine = Routine("r")
        assert routine.new_block("x").label == "x0"
        routine.blocks.append(BasicBlock("x2"))
        routine.invalidate()
        assert routine.new_block("x").label == "x3"
        assert routine.new_block("x").label == "x4"
        routine.remove_blocks({"x0"})
        assert routine.new_block("x").label == "x5"
        assert routine.new_block("y").label == "y4"

    def test_new_block_label_work_is_linear(self, monkeypatch):
        """A routine built block by block reads each label a bounded
        number of times: the check for a free label is O(1) per call."""
        reads = []

        class CountingBlock(BasicBlock):
            __slots__ = ("_label",)

            @property
            def label(self):
                reads.append(1)
                return self._label

            @label.setter
            def label(self, value):
                self._label = value

        monkeypatch.setattr(routine_module, "BasicBlock", CountingBlock)
        routine = Routine("r")
        for _ in range(2000):
            routine.new_block("b")
        assert routine.block_labels() == ["b%d" % i for i in range(2000)]
        assert len(reads) <= 2 * 2000

    def test_block_lookup(self):
        routine = make_diamond()
        assert routine.block("left1").label == "left1"
        with pytest.raises(IRError):
            routine.block("nonexistent")

    def test_predecessors(self):
        routine = make_diamond()
        preds = routine.predecessors()
        assert sorted(preds["join3"]) == ["left1", "right2"]
        assert preds[routine.entry.label] == []

    def test_call_sites_and_callees(self):
        routine = Routine("caller", n_params=0)
        builder = IRBuilder(routine)
        a = builder.const(1)
        builder.call("f", [a])
        builder.call("g", [a])
        builder.call("f", [a])
        builder.ret(a)
        routine = builder.finish()
        assert [c for _, _, c in routine.call_sites()] == ["f", "g", "f"]
        assert routine.callees() == ["f", "g"]

    def test_referenced_globals_order(self):
        routine = Routine("r", n_params=0)
        builder = IRBuilder(routine)
        x = builder.load_global("beta")
        builder.store_global("alpha", x)
        y = builder.load_global("beta")
        builder.ret(y)
        routine = builder.finish()
        assert routine.referenced_globals() == ["beta", "alpha"]

    def test_qualified_name(self):
        routine = Routine("f", module_name="m", exported=False)
        assert routine.qualified_name() == "m::f"
        routine.exported = True
        assert routine.qualified_name() == "f"


class TestDerivedDiscipline:
    def test_preds_cached_and_invalidated(self):
        routine = make_diamond()
        first = routine.predecessors()
        assert routine.predecessors() is first  # cached
        routine.invalidate()
        assert routine.predecessors() is not first  # recomputed

    def test_new_block_invalidates(self):
        routine = make_diamond()
        routine.predecessors()
        routine.new_block("extra")
        assert "preds" not in routine.derived

    def test_remove_blocks(self):
        routine = make_diamond()
        # Unlink the right path first.
        routine.entry.retarget("right2", "left1")
        routine.remove_blocks({"right2"})
        assert routine.block_labels() == ["entry0", "left1", "join3"]


class TestCopy:
    def test_copy_independent(self):
        routine = make_diamond()
        clone = routine.copy("diamond2")
        clone.blocks[0].instrs[0].imm = 777
        assert routine.blocks[0].instrs[0].imm == 0
        assert clone.name == "diamond2"
        assert clone.next_reg == routine.next_reg

    def test_copy_preserves_annotations(self):
        routine = make_diamond()
        routine.annotations["hot"] = 1
        assert routine.copy().annotations == {"hot": 1}
