"""Virtual-register liveness analysis (backward dataflow over masks)."""

from __future__ import annotations

from typing import Dict, NamedTuple

from ...ir.derived import derived_analysis
from ...ir.liveness import solve_liveness
from ...ir.routine import Routine
from .cfg import reverse_postorder


class LivenessInfo(NamedTuple):
    """Per-block register masks: bit *r* stands for virtual register
    *r* (:func:`repro.ir.liveness.regs_in` lists a mask's registers)."""

    live_in: Dict[str, int]
    live_out: Dict[str, int]
    use: Dict[str, int]
    defs: Dict[str, int]


@derived_analysis("liveness", cfg_shaped=False)
def liveness(routine: Routine) -> LivenessInfo:
    """Compute (and cache) live-in/out masks for every block."""
    use: Dict[str, int] = {}
    defs: Dict[str, int] = {}
    successors = {}
    for block in routine.blocks:
        block_use = block_def = 0
        for instr in block.instrs:
            block_use |= instr.use_mask() & ~block_def
            if instr.dst is not None:
                block_def |= 1 << instr.dst
        use[block.label] = block_use
        defs[block.label] = block_def
        successors[block.label] = block.successors()
    order = list(reversed(reverse_postorder(routine)))
    # Include unreachable blocks so the verifier-facing passes see them.
    reached = set(order)
    order.extend(
        block.label for block in routine.blocks if block.label not in reached
    )
    live_in, live_out = solve_liveness(order, use, defs, successors)
    return LivenessInfo(live_in, live_out, use, defs)
