"""HLO transformation phases."""

from .branch_elim import BranchElimination
from .clone import CloneDecision, make_clone, plan_clones
from .constprop import ConstantPropagation
from .dce import DeadCodeElimination
from .dfe import eliminate_dead_functions, reachable_routines
from .inline import InlineEngine, InlineStats, splice_call
from .licm import LoopInvariantCodeMotion
from .ipcp import (
    apply_param_constants,
    constant_return_value,
    gather_param_constants,
    publish_interprocedural_facts,
)
from .memopt import MemoryForwarding
from .simplify import SimplifyCfg

__all__ = [
    "BranchElimination",
    "CloneDecision",
    "make_clone",
    "plan_clones",
    "ConstantPropagation",
    "DeadCodeElimination",
    "eliminate_dead_functions",
    "reachable_routines",
    "InlineEngine",
    "InlineStats",
    "splice_call",
    "apply_param_constants",
    "constant_return_value",
    "gather_param_constants",
    "publish_interprocedural_facts",
    "MemoryForwarding",
    "LoopInvariantCodeMotion",
    "SimplifyCfg",
]
