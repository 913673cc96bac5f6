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
from bisect import insort
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
from .lir import LirRoutine, defined_reg


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


class _Interval:
    __slots__ = ("vreg", "start", "end", "weight")

    def __init__(self, vreg: int) -> None:
        self.vreg = vreg
        self.start = 1 << 60
        self.end = -1
        self.weight = 0


def _live_intervals(
    lir: LirRoutine, view: Optional[ProfileView]
) -> Tuple[Dict[int, _Interval], int]:
    """The live interval of every virtual register, and the mask of the
    registers live across some block boundary."""
    intervals: Dict[int, _Interval] = {}

    def touch(vreg: int, pos: int, weight: int) -> None:
        item = intervals.get(vreg)
        if item is None:
            item = intervals[vreg] = _Interval(vreg)
        if pos < item.start:
            item.start = pos
        if pos > item.end:
            item.end = pos
        item.weight += weight

    # One walk numbers the instructions, records every read and write,
    # and gathers the per-block masks the liveness kernel wants.
    use: Dict[str, int] = {}
    defs: Dict[str, int] = {}
    successors: Dict[str, Tuple[str, ...]] = {}
    bounds: List[Tuple[str, int, int]] = []
    pos = 0
    for block in lir.blocks:
        block_start = pos
        weight = max(view.count(block.label), 1) if view is not None else 1
        block_use = block_def = 0
        for instr in block.instrs:
            for reg in instr.reads():
                block_use |= (1 << reg) & ~block_def
                touch(reg, pos, weight)
            dst = defined_reg(instr)
            if dst is not None:
                block_def |= 1 << dst
                touch(dst, pos, weight)
            pos += 1
        term = block.terminator
        if term is not None and term.reg is not None:
            block_use |= (1 << term.reg) & ~block_def
            touch(term.reg, pos, weight)
        use[block.label] = block_use
        defs[block.label] = block_def
        successors[block.label] = (
            term.successors() if term is not None else ()
        )
        bounds.append((block.label, block_start, pos))
        pos += 1  # terminator slot

    live_in, live_out = solve_liveness(
        [block.label for block in reversed(lir.blocks)], use, defs, successors
    )
    crossing = 0
    for label, block_start, block_end in bounds:
        for vreg in regs_in(live_in[label]):
            touch(vreg, block_start, 0)
        for vreg in regs_in(live_out[label]):
            touch(vreg, block_end, 0)
        crossing |= live_in[label] | live_out[label]
    return intervals, crossing


def _linear_scan(
    intervals: List[_Interval],
    weighted: bool,
) -> Tuple[Dict[int, int], Set[int]]:
    """Classic linear scan; returns (vreg->phys, spilled vregs)."""
    assignment: Dict[int, int] = {}
    spilled: Set[int] = set()
    # Both kept in order as they change: the lowest free register
    # first, the active intervals by (end, vreg).
    free = list(ALLOCATABLE_REGS)
    heapify(free)
    active: List[Tuple[int, int, _Interval]] = []

    for current in sorted(intervals, key=lambda iv: (iv.start, iv.vreg)):
        # Expire old intervals: a prefix of the active list.
        expired = 0
        for end, vreg, _ in active:
            if end >= current.start:
                break
            heappush(free, assignment[vreg])
            expired += 1
        if expired:
            del active[:expired]

        if free:
            assignment[current.vreg] = heappop(free)
            insort(active, (current.end, current.vreg, current))
            continue

        # Choose a spill victim among active + current.
        candidates = [item for _, _, item in active]
        candidates.append(current)
        if weighted:
            victim = min(candidates, key=lambda iv: (iv.weight, -iv.end,
                                                     iv.vreg))
        else:
            victim = max(candidates, key=lambda iv: (iv.end, -iv.vreg))
        if victim is current:
            spilled.add(current.vreg)
        else:
            spilled.add(victim.vreg)
            active.remove((victim.end, victim.vreg, victim))
            assignment[current.vreg] = assignment.pop(victim.vreg)
            insort(active, (current.end, current.vreg, current))
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
    intervals, crossing = _live_intervals(lir, view)

    forced_spill: Set[int] = set()
    if mode is AllocMode.NAIVE:
        forced_spill = set(intervals)
    elif mode is AllocMode.LOCAL:
        forced_spill = set(regs_in(crossing))

    scannable = [iv for v, iv in intervals.items() if v not in forced_spill]
    assignment, scan_spilled = _linear_scan(
        scannable, weighted=view is not None
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

    phys = assignment.get
    new_instrs: List[MInstr] = []

    def operand(vreg: int, scratch: int) -> Optional[int]:
        """The physical register to read ``vreg`` from; a spilled one
        is first reloaded into ``scratch``."""
        if vreg not in spilled:
            return phys(vreg)
        new_instrs.append(MInstr(MOp.LDS, rd=scratch, imm=slot_of[vreg]))
        return scratch

    for block in lir.blocks:
        new_instrs = []
        for instr in block.instrs:
            rs1, rs2 = instr.rs1, instr.rs2
            if rs1 is not None:
                instr.rs1 = operand(rs1, REG_SCRATCH_A)
            if rs2 == rs1:
                instr.rs2 = instr.rs1
            elif rs2 is not None:
                instr.rs2 = operand(
                    rs2, REG_SCRATCH_B if rs1 in spilled else REG_SCRATCH_A
                )

            dst = defined_reg(instr)
            if instr.op is MOp.CALL:
                # CALL's rd is the virtual destination of the return
                # value, which the machine leaves in R0.
                vdst = instr.rd
                instr.rd = None
                new_instrs.append(instr)
                if vdst is not None:
                    if vdst in spilled:
                        new_instrs.append(
                            MInstr(MOp.STS, rs1=REG_RV, imm=slot_of[vdst])
                        )
                    else:
                        target = phys(vdst)
                        if target is not None:
                            new_instrs.append(
                                MInstr(MOp.MOVR, rd=target, rs1=REG_RV)
                            )
                continue
            if dst is not None:
                if dst in spilled:
                    instr.rd = REG_SCRATCH_A
                    new_instrs.append(instr)
                    new_instrs.append(
                        MInstr(MOp.STS, rs1=REG_SCRATCH_A, imm=slot_of[dst])
                    )
                    continue
                instr.rd = phys(dst)
            new_instrs.append(instr)
        block.instrs = new_instrs

        term = block.terminator
        if term is None:
            continue
        if term.kind == "br" and term.reg is not None:
            if term.reg in spilled:
                block.instrs.append(
                    MInstr(MOp.LDS, rd=REG_SCRATCH_A, imm=slot_of[term.reg])
                )
                term.reg = REG_SCRATCH_A
            else:
                term.reg = phys(term.reg)
        elif term.kind == "ret":
            if term.reg is None:
                block.instrs.append(MInstr(MOp.LDI, rd=REG_RV, imm=0))
            elif term.reg in spilled:
                block.instrs.append(
                    MInstr(MOp.LDS, rd=REG_RV, imm=slot_of[term.reg])
                )
            else:
                source = phys(term.reg)
                if source != REG_RV:
                    block.instrs.append(
                        MInstr(MOp.MOVR, rd=REG_RV, rs1=source)
                    )
            term.reg = None

    return AllocationResult(
        frame_size=max(next_slot, lir.n_params),
        spilled=len(spilled),
        assigned=len(assignment),
    )
