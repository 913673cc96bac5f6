"""Compiler driver: user-facing options, builds, selectivity, make.

:class:`BuildEngine` is the build loop of the CLI and the build
coordinator (fingerprint each source, recompile what changed, relink);
:meth:`Compiler.build` is the library's one-shot build.
"""

from .build import BuildEngine, BuildError, RebuildReport
from .compiler import BuildResult, BuildTimings, Compiler, train
from .options import CompilerOptions
from .selectivity import SelectivityPlan, plan_selectivity

__all__ = [
    "BuildEngine",
    "BuildError",
    "RebuildReport",
    "BuildResult",
    "BuildTimings",
    "Compiler",
    "train",
    "CompilerOptions",
    "SelectivityPlan",
    "plan_selectivity",
]
