"""Instruction scheduling: hide load-use stalls within basic blocks.

The VM charges a one-cycle stall when an instruction consumes the
result of the immediately preceding load.  The scheduler finds such
pairs and hoists a later independent instruction between them --
a deliberately small model of the list scheduling the paper's LLO does
for the PA-8000.
"""

from __future__ import annotations

from ..vm.isa import MInstr, MOp
from .lir import LirBlock, LirRoutine, defined_reg

_LOADS = (MOp.LDG, MOp.LDX, MOp.LDS)
_GLOBAL_MEM = (MOp.LDG, MOp.LDX, MOp.STG, MOp.STX)
_FRAME_MEM = (MOp.LDS, MOp.STS)
_STORES = (MOp.STG, MOp.STX, MOp.STS)


def _independent(a: MInstr, b: MInstr) -> bool:
    """True when ``a`` and ``b`` may be reordered freely."""
    # Calls and ARG staging are barriers for each other and for memory.
    a_call = a.op in (MOp.CALL, MOp.ARG)
    b_call = b.op in (MOp.CALL, MOp.ARG)
    if a_call and b_call:
        return False
    if (a_call and b.op in _GLOBAL_MEM) or (b_call and a.op in _GLOBAL_MEM):
        return False
    # Probes commute with everything except calls (cheap counters).
    if (a_call and b.op is MOp.PROBE) or (b_call and a.op is MOp.PROBE):
        return False

    # Memory ordering: a store conflicts with any same-space access.
    def mem_conflict(x: MInstr, y: MInstr) -> bool:
        if x.op in _STORES:
            if x.op in _GLOBAL_MEM and y.op in _GLOBAL_MEM:
                return True
            if x.op in _FRAME_MEM and y.op in _FRAME_MEM:
                # Frame slots are statically known: disambiguate.
                return x.imm == y.imm
        return False

    if mem_conflict(a, b) or mem_conflict(b, a):
        return False

    # Register dependences.
    a_def = defined_reg(a)
    b_def = defined_reg(b)
    if a_def is not None and (b_def == a_def or a_def in b.reads()):
        return False
    if b_def is not None and b_def in a.reads():
        return False
    return True


def schedule_block(block: LirBlock, window: int = 8) -> int:
    """Repair load-use stalls in one block; returns fills performed."""
    instrs = block.instrs
    fills = 0
    index = 0
    while index < len(instrs) - 1:
        load = instrs[index]
        consumer = instrs[index + 1]
        if load.op in _LOADS and load.rd in consumer.reads():
            hoisted = False
            limit = min(len(instrs), index + 2 + window)
            for j in range(index + 2, limit):
                candidate = instrs[j]
                # The candidate must not itself consume the load result
                # (that would just move the stall).
                if load.rd in candidate.reads():
                    continue
                movable = all(
                    _independent(candidate, instrs[k])
                    for k in range(index + 1, j)
                )
                if movable and _independent(candidate, load):
                    del instrs[j]
                    instrs.insert(index + 1, candidate)
                    fills += 1
                    hoisted = True
                    break
            if not hoisted:
                index += 1
        else:
            index += 1
    return fills


def schedule_routine(lir: LirRoutine, window: int = 8) -> int:
    """Schedule every block; returns total stall fills."""
    return sum(schedule_block(block, window) for block in lir.blocks)
