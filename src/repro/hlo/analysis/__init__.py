"""HLO analyses (derived data: recomputed, never incrementally updated)."""

from .cfg import reachable_labels, reverse_postorder
from .dominators import dominates, immediate_dominators
from .liveness import LivenessInfo, liveness
from .loops import Loop, find_loops, loop_depths
from .modref import ModRefAnalysis, ModRefInfo, direct_modref

__all__ = [
    "reachable_labels",
    "reverse_postorder",
    "dominates",
    "immediate_dominators",
    "LivenessInfo",
    "liveness",
    "Loop",
    "find_loops",
    "loop_depths",
    "ModRefAnalysis",
    "ModRefInfo",
    "direct_modref",
]
