"""Backward liveness over register bitmasks, for IL (HLO) and LIR (LLO).

A register set is a Python int with bit *r* set for virtual register
*r*, so a block's transfer function ``use | (out & ~def)`` is three
big-integer operations however many registers the routine has.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


def solve_liveness(
    order: Sequence[str],
    use: Dict[str, int],
    defs: Dict[str, int],
    successors: Dict[str, Tuple[str, ...]],
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Least fixed point of ``(live_in, live_out)`` for the blocks in
    ``order``, from their upward-exposed reads and their writes.

    ``order`` only sets how fast the sweeps converge (pass blocks
    successors-first); successors outside it contribute nothing.
    """
    live_in = dict.fromkeys(order, 0)
    live_out = dict.fromkeys(order, 0)
    changed = True
    while changed:
        changed = False
        for label in order:
            out = 0
            for succ in successors[label]:
                out |= live_in.get(succ, 0)
            live_out[label] = out
            new_in = use[label] | (out & ~defs[label])
            if new_in != live_in[label]:
                live_in[label] = new_in
                changed = True
    return live_in, live_out


def regs_in(mask: int) -> List[int]:
    """The registers of a mask, ascending."""
    regs = []
    while mask:
        low = mask & -mask
        regs.append(low.bit_length() - 1)
        mask ^= low
    return regs
