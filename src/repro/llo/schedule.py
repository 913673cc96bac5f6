"""Instruction scheduling: hide load-use stalls within basic blocks.

The VM charges a one-cycle stall when an instruction consumes the
result of the immediately preceding load.  The scheduler finds such
pairs and hoists a later independent instruction between them --
a deliberately small model of the list scheduling the paper's LLO does
for the PA-8000.
"""

from __future__ import annotations

from ..vm.isa import MInstr, MOp
from .lir import DEFINING_OPS, LirBlock, LirRoutine

_LOADS = (MOp.LDG, MOp.LDX, MOp.LDS)
_GLOBAL_MEM = (MOp.LDG, MOp.LDX, MOp.STG, MOp.STX)
_FRAME_MEM = (MOp.LDS, MOp.STS)
_STORES = (MOp.STG, MOp.STX, MOp.STS)
_CALL, _ARG, _PROBE = MOp.CALL, MOp.ARG, MOp.PROBE


def _independent(a: MInstr, b: MInstr) -> bool:
    """True when ``a`` and ``b`` may be reordered freely."""
    a_op = a.op
    b_op = b.op
    # Calls and ARG staging are barriers for each other and for memory;
    # probes commute with everything except calls (cheap counters).
    if a_op is _CALL or a_op is _ARG:
        if b_op is _CALL or b_op is _ARG or b_op is _PROBE or b_op in _GLOBAL_MEM:
            return False
    elif b_op is _CALL or b_op is _ARG:
        if a_op is _PROBE or a_op in _GLOBAL_MEM:
            return False

    # Memory ordering: a store conflicts with any same-space access;
    # frame slots are statically known, so those are disambiguated.
    if a_op in _STORES or b_op in _STORES:
        if a_op in _GLOBAL_MEM:
            if b_op in _GLOBAL_MEM:
                return False
        elif a_op in _FRAME_MEM and b_op in _FRAME_MEM and a.imm == b.imm:
            return False

    # Register dependences.
    a_def = a.rd if a_op in DEFINING_OPS else None
    b_def = b.rd if b_op in DEFINING_OPS else None
    if a_def is not None and (
        a_def == b_def or a_def == b.rs1 or a_def == b.rs2
    ):
        return False
    if b_def is not None and (b_def == a.rs1 or b_def == a.rs2):
        return False
    return True


def schedule_block(block: LirBlock, window: int = 8) -> int:
    """Repair load-use stalls in one block; returns fills performed."""
    instrs = block.instrs
    count = len(instrs)
    fills = 0
    index = 0
    while index < count - 1:
        load = instrs[index]
        dst = load.rd
        if load.op not in _LOADS or dst is None:
            index += 1
            continue
        consumer = instrs[index + 1]
        if dst != consumer.rs1 and dst != consumer.rs2:
            index += 1
            continue
        hoisted = False
        for j in range(index + 2, min(count, index + 2 + window)):
            candidate = instrs[j]
            # The candidate must not itself consume the load result
            # (that would just move the stall).
            if dst == candidate.rs1 or dst == candidate.rs2:
                continue
            for k in range(index + 1, j):
                if not _independent(candidate, instrs[k]):
                    break
            else:
                if _independent(candidate, load):
                    del instrs[j]
                    instrs.insert(index + 1, candidate)
                    fills += 1
                    hoisted = True
                    break
        if not hoisted:
            index += 1
    return fills


def schedule_routine(lir: LirRoutine, window: int = 8) -> int:
    """Schedule every block; returns total stall fills."""
    return sum(schedule_block(block, window) for block in lir.blocks)
