"""Workload configurations for the synthetic-application generator.

Named configs mirror the paper's evaluation suite (eight SPECint95
benchmarks + three multi-million-line MCAD applications), scaled down
to pure-Python-feasible sizes.  Every config records its ``scale_note``
so benches can print the substitution honestly (DESIGN.md §2).

Structural knobs -- module count, cross-module call density, dispatch
skew -- are the properties the paper's techniques actually depend on;
absolute line counts only set how far the memory/compile-time curves
extend.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class WorkloadConfig:
    """Parameters for one synthetic application."""

    def __init__(
        self,
        name: str,
        n_modules: int = 12,
        routines_per_module: int = 8,
        n_features: int = 4,
        module_window: int = 2,
        zipf_s: float = 1.3,
        dispatch_count: int = 300,
        input_size: int = 64,
        root_loop_max: int = 6,
        leaf_loop_max: int = 4,
        call_prob: float = 0.6,
        cond_call_prob: float = 0.5,
        cross_module_fraction: float = 0.45,
        arrays_per_module: int = 1,
        array_size: int = 16,
        mfl_fraction: float = 0.0,
        seed: int = 1,
        scale_note: str = "",
    ) -> None:
        self.name = name
        self.n_modules = n_modules
        self.routines_per_module = routines_per_module
        #: Number of dispatch entry points (hot/cold subgraph roots).
        self.n_features = min(n_features, n_modules)
        #: Callees live within this many modules of the caller.
        self.module_window = module_window
        #: Skew of the feature-popularity distribution.
        self.zipf_s = zipf_s
        #: Transactions the main dispatch loop executes.
        self.dispatch_count = dispatch_count
        #: Length of the global input array (program "input file").
        self.input_size = input_size
        self.root_loop_max = root_loop_max
        self.leaf_loop_max = leaf_loop_max
        #: Probability a routine makes an unconditional call.
        self.call_prob = call_prob
        #: Probability a routine makes an additional guarded call.
        self.cond_call_prob = cond_call_prob
        #: Fraction of calls that cross a module boundary.
        self.cross_module_fraction = cross_module_fraction
        self.arrays_per_module = arrays_per_module
        self.array_size = array_size
        #: Fraction of modules written in MFL (mixed-language apps).
        self.mfl_fraction = mfl_fraction
        self.seed = seed
        self.scale_note = scale_note

    def scaled(self, factor: float, name: Optional[str] = None) -> "WorkloadConfig":
        """A copy with module count scaled by ``factor``."""
        clone = WorkloadConfig(name or self.name)
        clone.__dict__.update(self.__dict__)
        if name:
            clone.name = name
        clone.n_modules = max(2, int(self.n_modules * factor))
        clone.n_features = min(self.n_features, clone.n_modules)
        return clone

    def __repr__(self) -> str:
        return "<WorkloadConfig %s (%d modules x %d routines)>" % (
            self.name,
            self.n_modules,
            self.routines_per_module,
        )


def spec_like_suite() -> List[WorkloadConfig]:
    """Stand-ins for the eight SPECint95 benchmarks (scaled ~1/10)."""
    note = "SPECint95 stand-in, ~1/10 LoC scale"
    return [
        WorkloadConfig("go_like", n_modules=10, routines_per_module=9,
                       n_features=3, zipf_s=1.1, dispatch_count=260,
                       seed=11, scale_note=note),
        WorkloadConfig("m88ksim_like", n_modules=8, routines_per_module=8,
                       n_features=3, zipf_s=1.5, dispatch_count=280,
                       seed=12, scale_note=note),
        WorkloadConfig("gcc_like", n_modules=24, routines_per_module=10,
                       n_features=6, zipf_s=1.2, dispatch_count=320,
                       seed=13, scale_note=note),
        WorkloadConfig("compress_like", n_modules=3, routines_per_module=6,
                       n_features=2, zipf_s=1.6, dispatch_count=300,
                       seed=14, scale_note=note),
        WorkloadConfig("li_like", n_modules=6, routines_per_module=7,
                       n_features=3, zipf_s=1.4, dispatch_count=280,
                       seed=15, scale_note=note),
        WorkloadConfig("ijpeg_like", n_modules=9, routines_per_module=9,
                       n_features=3, zipf_s=1.5, dispatch_count=300,
                       seed=16, scale_note=note),
        WorkloadConfig("perl_like", n_modules=9, routines_per_module=10,
                       n_features=4, zipf_s=1.2, dispatch_count=280,
                       seed=17, scale_note=note),
        WorkloadConfig("vortex_like", n_modules=16, routines_per_module=10,
                       n_features=5, zipf_s=1.4, dispatch_count=320,
                       seed=18, scale_note=note),
    ]


def mcad_suite(scale: float = 1.0) -> List[WorkloadConfig]:
    """Stand-ins for the three multi-million-line MCAD ISV applications.

    Mcad1 5 MLoC C, Mcad2 6.5 MLoC mixed-language, Mcad3 9 MLoC C++ --
    scaled to tens of kLoC.  The structural signature kept: many
    modules, strong execution skew (a small hot kernel), wide cold
    tail.
    """
    note = "MCAD ISV stand-in, ~1/200 LoC scale"
    configs = [
        WorkloadConfig("mcad1_like", n_modules=90, routines_per_module=9,
                       n_features=12, zipf_s=1.8, dispatch_count=420,
                       module_window=2, cross_module_fraction=0.5,
                       seed=21, scale_note=note),
        WorkloadConfig("mcad2_like", n_modules=110, routines_per_module=9,
                       n_features=14, zipf_s=1.7, dispatch_count=420,
                       module_window=3, cross_module_fraction=0.55,
                       mfl_fraction=0.35, seed=22, scale_note=note),
        WorkloadConfig("mcad3_like", n_modules=150, routines_per_module=9,
                       n_features=16, zipf_s=1.9, dispatch_count=440,
                       module_window=2, cross_module_fraction=0.5,
                       seed=23, scale_note=note),
    ]
    if scale != 1.0:
        configs = [c.scaled(scale) for c in configs]
    return configs


def tiny_config(seed: int = 7) -> WorkloadConfig:
    """A small config for unit tests."""
    return WorkloadConfig(
        "tiny", n_modules=4, routines_per_module=4, n_features=2,
        dispatch_count=60, input_size=16, seed=seed,
        scale_note="unit-test size",
    )


def full_suite() -> Dict[str, WorkloadConfig]:
    """Every named workload, keyed by name (Figure 1's x axis)."""
    suite = {}
    for config in spec_like_suite() + mcad_suite():
        suite[config.name] = config
    return suite
