"""Register allocation: linear scan with spilling.

Three modes implement the optimization ladder:

* ``NAIVE`` (+O0): every virtual register lives in a frame slot; each
  use reloads, each definition stores back.
* ``LOCAL`` (+O1): values live across basic-block boundaries are
  spilled; block-local values get registers ("optimize only within
  basic block boundaries", the paper's Mcad3 baseline).
* ``GLOBAL`` (+O2 and up): whole-routine linear scan over live
  intervals.  With a profile view, spill-victim selection is weighted
  by dynamic use counts -- the paper's "improving the cost model for
  register allocation" under PBO.

Physical registers: R1..R13 allocatable, R14/R15 spill scratch, R0 the
call return-value register (see :mod:`repro.vm.isa`).
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Set, Tuple

from ..hlo.profile_view import ProfileView
from ..ir.liveness import regs_in, solve_liveness
from ..vm.isa import (
    ALLOCATABLE_REGS,
    REG_RV,
    REG_SCRATCH_A,
    REG_SCRATCH_B,
    MInstr,
    MOp,
)
from .lir import DEFINING_OPS, LirRoutine

_LDS, _STS, _LDI, _MOVR, _CALL = MOp.LDS, MOp.STS, MOp.LDI, MOp.MOVR, MOp.CALL


class AllocMode(enum.Enum):
    """Allocation quality ladder: NAIVE (+O0), LOCAL (+O1), GLOBAL (+O2)."""

    NAIVE = "naive"
    LOCAL = "local"
    GLOBAL = "global"


class AllocationResult:
    """What the allocator reports back."""

    __slots__ = ("frame_size", "spilled_count", "assigned_count")

    def __init__(self, frame_size: int, spilled: int, assigned: int) -> None:
        self.frame_size = frame_size
        self.spilled_count = spilled
        self.assigned_count = assigned


def _live_intervals(
    lir: LirRoutine, view: Optional[ProfileView]
) -> Tuple[Dict[int, int], Dict[int, int], Dict[int, int], int]:
    """The live interval of every virtual register as three maps --
    its first and last position and its use weight -- and the mask of
    the registers live across some block boundary."""
    start: Dict[int, int] = {}
    end: Dict[int, int] = {}
    weight: Dict[int, int] = {}

    # One walk numbers the instructions, records every read and write,
    # and gathers the per-block masks the liveness kernel wants.
    # Positions only grow here, so a register's first touch is its
    # start and its latest touch its end.
    use: Dict[str, int] = {}
    defs: Dict[str, int] = {}
    successors: Dict[str, Tuple[str, ...]] = {}
    bounds: List[Tuple[str, int, int]] = []
    defining_ops = DEFINING_OPS
    pos = 0
    for block in lir.blocks:
        label = block.label
        block_start = pos
        block_weight = max(view.count(label), 1) if view is not None else 1
        block_use = block_def = 0
        # Each touch of a register: count its weight, move its end (and
        # on the first, set its start).  Written out per operand: this
        # is the allocator's innermost loop.
        for instr in block.instrs:
            reg = instr.rs1
            if reg is not None:
                block_use |= (1 << reg) & ~block_def
                if reg in weight:
                    weight[reg] += block_weight
                    end[reg] = pos
                else:
                    start[reg] = end[reg] = pos
                    weight[reg] = block_weight
            reg = instr.rs2
            if reg is not None:
                block_use |= (1 << reg) & ~block_def
                if reg in weight:
                    weight[reg] += block_weight
                    end[reg] = pos
                else:
                    start[reg] = end[reg] = pos
                    weight[reg] = block_weight
            if instr.op in defining_ops:
                reg = instr.rd
                if reg is not None:
                    block_def |= 1 << reg
                    if reg in weight:
                        weight[reg] += block_weight
                        end[reg] = pos
                    else:
                        start[reg] = end[reg] = pos
                        weight[reg] = block_weight
            pos += 1
        # The terminator reads in the slot after the last instruction.
        term = block.terminator
        reg = term.reg if term is not None else None
        if reg is not None:
            block_use |= (1 << reg) & ~block_def
            if reg in weight:
                weight[reg] += block_weight
                end[reg] = pos
            else:
                start[reg] = end[reg] = pos
                weight[reg] = block_weight
        use[label] = block_use
        defs[label] = block_def
        successors[label] = term.successors() if term is not None else ()
        bounds.append((label, block_start, pos))
        pos += 1

    live_in, live_out = solve_liveness(
        [block.label for block in reversed(lir.blocks)], use, defs, successors
    )
    # A register live into (out of) a block stretches to its start
    # (end).  Every live register was read somewhere, so it has a start.
    crossing = 0
    for label, block_start, block_end in bounds:
        for mask, at in ((live_in[label], block_start),
                         (live_out[label], block_end)):
            crossing |= mask
            while mask:
                low = mask & -mask
                mask ^= low
                reg = low.bit_length() - 1
                if at < start[reg]:
                    start[reg] = at
                if at > end[reg]:
                    end[reg] = at
    return start, end, weight, crossing


def _linear_scan(
    vregs: List[int],
    start: Dict[int, int],
    end: Dict[int, int],
    weight: Optional[Dict[int, int]],
) -> Tuple[Dict[int, int], Set[int]]:
    """Classic linear scan over the intervals of ``vregs``; returns
    (vreg->phys, spilled vregs).  With ``weight``, the spill victim is
    the least used interval, else the one that ends last."""
    assignment: Dict[int, int] = {}
    spilled: Set[int] = set()
    # Both kept in order as they change: the lowest free register
    # first, the active intervals by (end, vreg).
    free = list(ALLOCATABLE_REGS)
    heapify(free)
    active: List[Tuple[int, int]] = []

    for current_start, current in sorted([(start[v], v) for v in vregs]):
        # Expire old intervals: a prefix of the active list.
        if active and active[0][0] < current_start:
            expired = bisect_left(active, (current_start,))
            for _, vreg in active[:expired]:
                heappush(free, assignment[vreg])
            del active[:expired]

        if free:
            assignment[current] = heappop(free)
            insort(active, (end[current], current))
            continue

        # Choose a spill victim among active + current.
        candidates = [vreg for _, vreg in active]
        candidates.append(current)
        if weight is not None:
            victim = min(candidates, key=lambda v: (weight[v], -end[v], v))
        else:
            victim = max(candidates, key=lambda v: (end[v], -v))
        spilled.add(victim)
        if victim != current:
            active.remove((end[victim], victim))
            assignment[current] = assignment.pop(victim)
            insort(active, (end[current], current))
    return assignment, spilled


def allocate(
    lir: LirRoutine,
    mode: AllocMode = AllocMode.GLOBAL,
    view: Optional[ProfileView] = None,
) -> AllocationResult:
    """Rewrite LIR virtual registers to physical registers + frame slots.

    After this pass every ``rd``/``rs`` field holds a physical register
    number; spill traffic is explicit LDS/STS; terminators carry
    physical condition registers and return plumbing is materialized
    (value moved to R0 before every ``ret``).
    """
    start, end, weight, crossing = _live_intervals(lir, view)

    forced_spill: Set[int] = set()
    if mode is AllocMode.NAIVE:
        forced_spill = set(start)
    elif mode is AllocMode.LOCAL:
        forced_spill = set(regs_in(crossing))

    assignment, scan_spilled = _linear_scan(
        [vreg for vreg in start if vreg not in forced_spill],
        start, end, weight if view is not None else None,
    )
    spilled = forced_spill | scan_spilled

    # Frame slots: parameters own slots 0..n-1; other spills get fresh
    # slots in deterministic (vreg) order.
    slot_of: Dict[int, int] = {}
    next_slot = lir.n_params
    for vreg in sorted(spilled):
        if vreg < lir.n_params:
            slot_of[vreg] = vreg
        else:
            slot_of[vreg] = next_slot
            next_slot += 1

    # Rewrite every operand to its register; a spilled operand is first
    # reloaded into a scratch register, a spilled result stored back.
    phys = assignment.get
    defining_ops = DEFINING_OPS
    for block in lir.blocks:
        new_instrs: List[MInstr] = []
        append = new_instrs.append
        for instr in block.instrs:
            rs1, rs2 = instr.rs1, instr.rs2
            if rs1 is not None:
                if rs1 in spilled:
                    append(MInstr(_LDS, None, REG_SCRATCH_A, None, None,
                                  slot_of[rs1]))
                    instr.rs1 = REG_SCRATCH_A
                else:
                    instr.rs1 = phys(rs1)
            if rs2 == rs1:
                instr.rs2 = instr.rs1
            elif rs2 is not None:
                if rs2 in spilled:
                    scratch = REG_SCRATCH_B if rs1 in spilled else REG_SCRATCH_A
                    append(MInstr(_LDS, None, scratch, None, None,
                                  slot_of[rs2]))
                    instr.rs2 = scratch
                else:
                    instr.rs2 = phys(rs2)

            op = instr.op
            if op is _CALL:
                # CALL's rd is the virtual destination of the return
                # value, which the machine leaves in R0.
                vdst = instr.rd
                instr.rd = None
                append(instr)
                if vdst is not None:
                    if vdst in spilled:
                        append(MInstr(_STS, None, None, REG_RV, None,
                                      slot_of[vdst]))
                    else:
                        target = phys(vdst)
                        if target is not None:
                            append(MInstr(_MOVR, None, target, REG_RV))
                continue
            if op in defining_ops:
                dst = instr.rd
                if dst is not None:
                    if dst in spilled:
                        instr.rd = REG_SCRATCH_A
                        append(instr)
                        append(MInstr(_STS, None, None, REG_SCRATCH_A, None,
                                      slot_of[dst]))
                        continue
                    instr.rd = phys(dst)
            append(instr)
        block.instrs = new_instrs

        term = block.terminator
        if term is None:
            continue
        if term.kind == "br" and term.reg is not None:
            if term.reg in spilled:
                new_instrs.append(
                    MInstr(_LDS, None, REG_SCRATCH_A, None, None,
                           slot_of[term.reg])
                )
                term.reg = REG_SCRATCH_A
            else:
                term.reg = phys(term.reg)
        elif term.kind == "ret":
            if term.reg is None:
                new_instrs.append(MInstr(_LDI, None, REG_RV, None, None, 0))
            elif term.reg in spilled:
                new_instrs.append(
                    MInstr(_LDS, None, REG_RV, None, None, slot_of[term.reg])
                )
            else:
                source = phys(term.reg)
                if source != REG_RV:
                    new_instrs.append(MInstr(_MOVR, None, REG_RV, source))
            term.reg = None

    return AllocationResult(
        frame_size=max(next_slot, lir.n_params),
        spilled=len(spilled),
        assigned=len(assignment),
    )
