"""The batched machine-routine codec against its per-field spec.

``repro.linker.objects`` encodes ``mach`` blobs (and the routines of a
code object) in batches; ``reference_machine_codec`` is the per-field
codec it replaced.  For ANY routine list the two must agree byte for
byte and decode to the same routines, damage must surface as a
structured error, and two fixed-seed blobs are frozen by hash so the
format cannot drift between commits unnoticed.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_machine_codec as reference
from machine_blob_rows import ROWS, synthetic_routines
from repro.ir.module import Module
from repro.linker.objects import (
    LinkError,
    ObjectFile,
    decode_machine_routines,
    encode_machine_routines,
)
from repro.naim.compaction import (
    OPCODE_WIRE_LIST,
    CompactionError,
    _finish_batched,
)
from repro.vm.image import MachineRoutine
from repro.vm.isa import MInstr, MOp

I64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
#: Beyond 64 bits zigzag is not invertible; the bytes must still agree.
WIDE = st.integers(min_value=-(2 ** 80), max_value=2 ** 80)
OPT_REG = st.one_of(st.none(), st.integers(0, 400))
SYM = st.one_of(st.none(), st.sampled_from(
    ["main", "helper", "g_table", "m3::static", "ünicode"]
))


def instrs(imm):
    return st.builds(
        MInstr,
        st.sampled_from(list(MOp)),
        subop=st.one_of(st.none(), st.sampled_from(OPCODE_WIRE_LIST)),
        rd=OPT_REG, rs1=OPT_REG, rs2=OPT_REG,
        imm=st.one_of(st.none(), imm),
        imm2=st.one_of(st.none(), st.integers(0, 2 ** 40)),
        sym=SYM,
    )


def routines(imm):
    return st.lists(st.builds(
        MachineRoutine,
        st.sampled_from(["main", "f", "g::h", ""]),
        st.lists(instrs(imm), max_size=12),
        n_params=st.integers(0, 9),
        frame_size=st.integers(0, 3000),
        source_module=st.sampled_from(["", "m0", "mod_1"]),
    ), max_size=5)


def snapshot(machines):
    return [
        (m.name, m.n_params, m.frame_size, m.source_module,
         [(i.op, i.subop, i.rd, i.rs1, i.rs2, i.imm, i.imm2, i.sym, i.target)
          for i in m.instrs])
        for m in machines
    ]


@given(machines=routines(I64))
@settings(deadline=None, max_examples=150)
def test_batched_codec_is_the_reference_codec(machines):
    blob = encode_machine_routines(machines)
    assert blob == reference.encode_machine_routines(machines)
    decoded = decode_machine_routines(blob)
    assert snapshot(decoded) == snapshot(machines)
    assert snapshot(reference.decode_machine_routines(blob)) == (
        snapshot(decoded)
    )
    assert encode_machine_routines(decoded) == blob


@given(machines=routines(WIDE))
@settings(deadline=None, max_examples=60)
def test_wide_immediates_encode_to_the_reference_bytes(machines):
    blob = encode_machine_routines(machines)
    assert blob == reference.encode_machine_routines(machines)
    assert snapshot(decode_machine_routines(blob)) == snapshot(
        reference.decode_machine_routines(blob)
    )


def test_every_opcode_and_the_empty_routine_round_trip():
    machines = synthetic_routines()
    assert {i.op for m in machines for i in m.instrs} == set(MOp)
    assert any(not m.instrs for m in machines)
    blob = encode_machine_routines(machines)
    assert blob == reference.encode_machine_routines(machines)
    assert snapshot(decode_machine_routines(blob)) == snapshot(machines)
    assert decode_machine_routines(encode_machine_routines([])) == []


def test_a_code_object_carries_the_same_routine_bytes():
    """``ObjectFile.to_bytes`` shares the routine encoder (and one
    string table with the object header)."""
    machines = synthetic_routines()
    module = Module("m0")
    obj = ObjectFile.from_machine_routines(module, machines)
    restored = ObjectFile.from_bytes(obj.to_bytes())
    assert snapshot(restored.machine_routines) == snapshot(machines)
    assert restored.to_bytes() == obj.to_bytes()


# -- Damage -------------------------------------------------------------------


def test_every_truncation_is_a_structured_error():
    blob = encode_machine_routines(synthetic_routines(n_routines=3))
    for cut in range(len(blob)):
        with pytest.raises(CompactionError) as caught:
            decode_machine_routines(blob[:cut])
        assert caught.value.offset is not None
        assert caught.value.field


def _blob_of(values, strings=("r", "m")):
    """A blob with a hand-written body behind a real string table."""
    return _finish_batched(list(strings), list(values))


HEADER = [1, 1, 0, 1, 0, 0, 1]  # version, one routine "r" of "m", 1 instr


@pytest.mark.parametrize("body, field", [
    (HEADER + [len(MOp), 0, 0, 0, 0, 0, 0, 0], "machine opcode"),
    (HEADER + [0, len(OPCODE_WIRE_LIST) + 1, 0, 0, 0, 0, 0, 0],
     "machine sub-opcode"),
    (HEADER + [0, 0, 0, 0, 0, 0, 0, 1, 7], "machine symbol"),
    ([1, 1, 9, 1, 0, 0, 0], "machine routine name"),
    ([1, 1, 0, 9, 0, 0, 0], "source module"),
])
def test_a_bad_index_names_its_field(body, field):
    with pytest.raises(CompactionError) as caught:
        decode_machine_routines(_blob_of(body))
    assert caught.value.field == field
    assert caught.value.offset is not None


def test_a_wrong_version_is_a_link_error():
    with pytest.raises(LinkError, match="version"):
        decode_machine_routines(_blob_of([2, 0]))


def test_a_negative_field_is_refused_on_encode():
    bad = MachineRoutine("r", [MInstr(MOp.LDX, imm2=-5)], 0, 0)
    with pytest.raises(CompactionError, match="negative"):
        encode_machine_routines([bad])


# -- Frozen bytes -------------------------------------------------------------

FIXTURE = os.path.join(
    os.path.dirname(__file__), os.pardir, "fixtures", "golden_mach_blob.json"
)


@pytest.mark.parametrize("row", sorted(ROWS))
def test_fixed_seed_blob_matches_the_frozen_hash(row):
    with open(FIXTURE, encoding="utf-8") as handle:
        frozen = json.load(handle)
    assert ROWS[row]() == frozen[row]
