"""The per-field machine-routine codec, kept as the format spec.

``src/repro/linker/objects.py`` encodes and decodes machine routines in
batches (one flat run of varints per routine, slot stores on decode).
This module is the code that replaced: one ``Writer.u`` / ``Reader.u``
call per field, which is the plainest statement of the ``mach`` blob
layout.  ``test_machine_codec.py`` asserts both produce the same bytes
and the same routines; nothing under ``src/`` imports this.

Layout of one routine, every field an unsigned LEB128 varint::

    string(name) string(source_module) n_params frame_size n_instrs
    n_instrs * [ op  subop+1|0  rd+1|0  rs1+1|0  rs2+1|0
                 0 | 1 zigzag(imm)   imm2+1|0   0 | 1 string(sym) ]

A blob is ``version n_routines routine*`` behind the ``Writer`` string
table.  ``target`` is never stored: emitted routines have none.
"""

from typing import List

from repro.linker.objects import _OBJ_VERSION, LinkError
from repro.naim.compaction import (
    OPCODE_WIRE_INDEX,
    OPCODE_WIRE_LIST,
    Reader,
    Writer,
)
from repro.vm.image import MachineRoutine
from repro.vm.isa import MInstr, MOp

#: ``op`` on the wire is the member's position in ``MOp``.
_MOP_LIST = list(MOp)
_MOP_INDEX = {op: index for index, op in enumerate(_MOP_LIST)}


def encode_machine_routine(writer: Writer, machine: MachineRoutine) -> None:
    writer.string_ref(machine.name)
    writer.string_ref(machine.source_module)
    writer.u(machine.n_params)
    writer.u(machine.frame_size)
    writer.u(len(machine.instrs))
    for instr in machine.instrs:
        writer.u(_MOP_INDEX[instr.op])
        writer.u(0 if instr.subop is None else OPCODE_WIRE_INDEX[instr.subop] + 1)
        writer.opt_reg(instr.rd)
        writer.opt_reg(instr.rs1)
        writer.opt_reg(instr.rs2)
        if instr.imm is None:
            writer.u(0)
        else:
            writer.u(1)
            writer.s(instr.imm)
        writer.u(0 if instr.imm2 is None else instr.imm2 + 1)
        if instr.sym is None:
            writer.u(0)
        else:
            writer.u(1)
            writer.string_ref(instr.sym)


def decode_machine_routine(reader: Reader) -> MachineRoutine:
    name = reader.string_ref()
    source_module = reader.string_ref()
    n_params = reader.u()
    frame_size = reader.u()
    count = reader.u()
    instrs: List[MInstr] = []
    for _ in range(count):
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
        instrs.append(
            MInstr(op, subop=subop, rd=rd, rs1=rs1, rs2=rs2, imm=imm,
                   imm2=imm2, sym=sym)
        )
    return MachineRoutine(
        name, instrs, n_params=n_params, frame_size=frame_size,
        source_module=source_module
    )


def encode_machine_routines(machines: List[MachineRoutine]) -> bytes:
    writer = Writer()
    writer.u(_OBJ_VERSION)
    writer.u(len(machines))
    for machine in machines:
        encode_machine_routine(writer, machine)
    return writer.finish()


def decode_machine_routines(data: bytes) -> List[MachineRoutine]:
    reader = Reader(data)
    version = reader.u()
    if version != _OBJ_VERSION:
        raise LinkError("unsupported machine-blob version %d" % version)
    return [decode_machine_routine(reader) for _ in range(reader.u())]
