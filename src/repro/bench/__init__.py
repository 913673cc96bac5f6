"""Benchmark harness: regenerates every data figure of the paper."""

from .figures import (
    FIGURES,
    FigureResult,
    run_figure1,
    run_figure4,
    run_figure5,
    run_figure6,
    run_history,
    run_naim_ablation,
    run_stale_profiles,
)
from .tables import Table, fmt_mb, speedup

__all__ = [
    "FIGURES",
    "FigureResult",
    "run_figure1",
    "run_figure4",
    "run_figure5",
    "run_figure6",
    "run_history",
    "run_naim_ablation",
    "run_stale_profiles",
    "Table",
    "fmt_mb",
    "speedup",
]
