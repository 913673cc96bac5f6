"""repro: reproduction of "Scalable Cross-Module Optimization"
(Ayers, de Jong, Peyton, Schooler -- PLDI 1998).

The package implements the paper's production CMO framework end to
end: an MLL frontend lowering to a common IL, the NAIM not-all-in-
memory model (compaction, PID swizzling, disk repository, thresholded
loader), profile-based selectivity, the HLO interprocedural optimizer,
the LLO code generator, a profile-clustering linker, and a functional
virtual machine with a cycle model -- plus the synthetic-application
generator and the benchmark harness that regenerate the paper's
figures.

Quickstart::

    from repro import Compiler, CompilerOptions, train
    from repro.synth import generate, tiny_config

    app = generate(tiny_config())
    profile = train(app.sources, [app.make_input(seed=1)])
    build = Compiler(CompilerOptions(opt_level=4, pbo=True)).build(
        app.sources, profile_db=profile)
    print(build.run(inputs=app.make_input(seed=2)))

See README.md for the architecture tour and DESIGN.md for the
paper-to-module map.
"""

from .driver.build import BuildEngine, BuildError, RebuildReport
from .driver.compiler import BuildResult, Compiler, train
from .driver.options import CompilerOptions
from .driver.selectivity import SelectivityPlan, plan_selectivity
from .frontend import compile_source, compile_sources
from .hlo.driver import HighLevelOptimizer, HloResult
from .hlo.options import HloOptions
from .incr import IncrementalState, IncrLinkReport, ModuleSummary
from .interp import Interpreter, run_program
from .ir import Module, Program, Routine
from .linker.objects import ObjectFile
from .naim.config import NaimConfig, NaimLevel
from .profiles.database import ProfileDatabase
from .sched import ArtifactCache, EventLog
from .triage import isolate_failing_modules, isolate_inline_operation
from .vm.cost import CostModel
from .vm.machine import Machine, MachineResult, run_image

__version__ = "1.0.0"

__all__ = [
    "BuildEngine",
    "BuildError",
    "RebuildReport",
    "ArtifactCache",
    "EventLog",
    "BuildResult",
    "Compiler",
    "train",
    "CompilerOptions",
    "SelectivityPlan",
    "plan_selectivity",
    "compile_source",
    "compile_sources",
    "HighLevelOptimizer",
    "HloResult",
    "HloOptions",
    "IncrementalState",
    "IncrLinkReport",
    "ModuleSummary",
    "Interpreter",
    "run_program",
    "Module",
    "Program",
    "Routine",
    "ObjectFile",
    "NaimConfig",
    "NaimLevel",
    "ProfileDatabase",
    "isolate_failing_modules",
    "isolate_inline_operation",
    "CostModel",
    "Machine",
    "MachineResult",
    "run_image",
    "__version__",
]
