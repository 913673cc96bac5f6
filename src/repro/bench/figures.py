"""Reproduction harness for every data figure in the paper.

Each ``run_figureN`` function regenerates one figure's rows/series and
returns a :class:`FigureResult` whose table prints the same quantities
the paper plots.  Figures 2 and 3 are architecture diagrams (the
package structure realizes them); the data figures are:

* Figure 1 -- speedups of PBO / CMO / CMO+PBO over the +O2 baseline
  across the benchmark suite (Mcad3 against +O1);
* Figure 4 -- compiler and HLO memory vs lines compiled under CMO;
* Figure 5 -- HLO compile time vs memory across NAIM levels;
* Figure 6 -- compile time and run time vs selectivity percentage.

Extra ablations (DESIGN.md experiment index): the §8 memory-per-line
history and the loader-cache / inline-scheduling ablations.

All workloads are synthetic stand-ins (DESIGN.md §2); tables carry the
scale notes.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..driver.compiler import BuildResult, Compiler, train
from ..driver.options import CompilerOptions
from ..hlo.options import HloOptions
from ..naim.config import NaimConfig, NaimLevel
from ..synth.config import mcad_suite, spec_like_suite
from ..synth.generator import GeneratedApp, generate
from .tables import Table, fmt_mb, speedup


class FigureResult:
    """A reproduced figure: printable table + raw series."""

    def __init__(self, figure_id: str, table: Table,
                 data: Optional[Dict] = None) -> None:
        self.figure_id = figure_id
        self.table = table
        self.data = data or {}

    def render(self) -> str:
        return self.table.render()

    def __str__(self) -> str:
        return self.render()


# -- Shared helpers ---------------------------------------------------------------


def _aggressive_hlo() -> HloOptions:
    """Inline budgets for +O4 +P runs (the paper's aggressive inlining)."""
    return HloOptions(
        inline_hot_callee_max_instrs=260,
        inline_callee_max_instrs=60,
        inline_program_growth_factor=2.6,
        inline_routine_growth_factor=4.0,
        inline_caller_max_instrs=2600,
    )


def _build_and_run(
    app: GeneratedApp,
    options: CompilerOptions,
    profile_db,
    run_input,
) -> Dict:
    compiler = Compiler(options)
    started = time.perf_counter()
    build = compiler.build(app.sources, profile_db=profile_db)
    build_seconds = time.perf_counter() - started
    outcome = build.run(inputs=run_input)
    return {
        "build": build,
        "build_seconds": build_seconds,
        "cycles": outcome.cycles,
        "value": outcome.value,
        "result": outcome,
    }


# -- Figure 1 -------------------------------------------------------------------------


def run_figure1(
    quick: bool = False,
    mcad_scale: float = 1.0,
    include_mcad: bool = True,
) -> FigureResult:
    """Speedups of +P / +O4 / +O4+P relative to the default level.

    Shape targets from the paper: every program gains from CMO+PBO;
    the largest speedups appear on the big mcad-like applications; CMO
    alone is not attempted on the mcad apps (the paper could not
    compile them without selectivity -- §5).
    """
    table = Table(
        "Figure 1: speedup over default optimization (+O2; Mcad3-like +O1)",
        ["program", "lines", "PBO", "CMO", "CMO+PBO"],
    )
    configs = spec_like_suite()
    if quick:
        configs = configs[:3]
    if include_mcad:
        configs += mcad_suite(mcad_scale)

    data: Dict[str, Dict[str, float]] = {}
    for config in configs:
        app = generate(config)
        is_mcad = config.name.startswith("mcad")
        train_seed, ref_seed = (1, 1) if is_mcad else (1, 2)
        profile_db = train(app.sources, [app.make_input(seed=train_seed)])
        ref_input = app.make_input(seed=ref_seed)
        base_level = 1 if config.name == "mcad3_like" else 2

        baseline = _build_and_run(
            app, CompilerOptions(opt_level=base_level), None, ref_input
        )
        pbo = _build_and_run(
            app, CompilerOptions(opt_level=2, pbo=True), profile_db, ref_input
        )
        row: Dict[str, float] = {
            "lines": app.source_lines(),
            "PBO": speedup(baseline["cycles"], pbo["cycles"]),
        }
        if is_mcad:
            cmo_text = "n/a"
            row["CMO"] = float("nan")
        else:
            cmo = _build_and_run(
                app,
                CompilerOptions(opt_level=4, hlo=_aggressive_hlo()),
                None,
                ref_input,
            )
            row["CMO"] = speedup(baseline["cycles"], cmo["cycles"])
            cmo_text = "%.3f" % row["CMO"]
            assert cmo["value"] == baseline["value"], config.name
        both = _build_and_run(
            app,
            CompilerOptions(opt_level=4, pbo=True, hlo=_aggressive_hlo()),
            profile_db,
            ref_input,
        )
        row["CMO+PBO"] = speedup(baseline["cycles"], both["cycles"])
        assert pbo["value"] == baseline["value"], config.name
        assert both["value"] == baseline["value"], config.name

        table.add_row(
            config.name,
            row["lines"],
            "%.3f" % row["PBO"],
            cmo_text,
            "%.3f" % row["CMO+PBO"],
        )
        data[config.name] = row
    table.add_note("mcad CMO column n/a: the paper could not compile the "
                   "MCAD apps with pure CMO either (section 5)")
    table.add_note("mcad apps trained and benchmarked on the same input, "
                   "SPEC-likes on train-vs-reference inputs (section 2)")
    if include_mcad and mcad_scale != 1.0:
        table.add_note("mcad scale factor %.2f" % mcad_scale)
    return FigureResult("figure1", table, data)


# -- Figure 4 ------------------------------------------------------------------------


def run_figure4(
    points: int = 5,
    scale: float = 1.0,
    naim_memory_mb: int = 4,
) -> FigureResult:
    """Compiler & HLO memory vs lines of code compiled in CMO mode.

    The CMO module set grows prefix by prefix over the mcad1-like app
    (everything else compiles at +O2+P).  With NAIM, HLO memory grows
    sub-linearly; overall compiler memory grows faster because LLO's
    working set is quadratic in post-inlining routine size (Figure 4's
    caption).
    """
    config = mcad_suite(scale)[0]
    app = generate(config)
    profile_db = train(app.sources, [app.make_input(seed=1)])
    module_names = [n for n in app.sources if n != "main"]

    table = Table(
        "Figure 4: memory use vs lines compiled with CMO (mcad1-like)",
        ["cmo_lines", "cmo_modules", "hlo_MB", "overall_MB", "hlo_KB_per_line"],
    )
    naim = NaimConfig(physical_memory_bytes=naim_memory_mb * 1024 * 1024)
    series: List[Dict[str, float]] = []
    for index in range(1, points + 1):
        count = max(1, len(module_names) * index // points)
        cmo_set = frozenset(module_names[:count] + ["main"])
        options = CompilerOptions(
            opt_level=4,
            pbo=True,
            naim=naim,
            hlo=_aggressive_hlo(),
            cmo_modules=cmo_set,
        )
        build = Compiler(options).build(app.sources, profile_db=profile_db)
        assert build.hlo_result is not None
        cmo_lines = sum(
            text.count("\n") + 1
            for name, text in app.sources.items()
            if name in cmo_set
        )
        hlo_peak = build.hlo_result.peak_bytes
        overall_peak = build.accountant.peak
        table.add_row(
            cmo_lines,
            count + 1,
            "%.2f" % fmt_mb(hlo_peak),
            "%.2f" % fmt_mb(overall_peak),
            "%.2f" % (hlo_peak / 1024.0 / max(cmo_lines, 1)),
        )
        series.append(
            {
                "cmo_lines": cmo_lines,
                "hlo_bytes": hlo_peak,
                "overall_bytes": overall_peak,
            }
        )
    table.add_note(
        "NAIM auto thresholds against a %d MB modeled machine" % naim_memory_mb
    )
    table.add_note("sub-linear when KB/line falls as lines grow")
    return FigureResult("figure4", table, {"series": series})


# -- Figure 5 -------------------------------------------------------------------------


def run_figure5(scale: float = 4.0, cache_pools: int = 12) -> FigureResult:
    """HLO compile time vs memory across NAIM levels (gcc-like app).

    One point per configuration: NAIM off, IR compaction, IR+symbol-
    table compaction, full offload to the disk repository.  Time is
    real wall time of the HLO phase; memory is the peak modeled
    resident bytes (DESIGN.md §2 substitution).
    """
    config = next(c for c in spec_like_suite() if c.name == "gcc_like")
    if scale != 1.0:
        config = config.scaled(scale)
    app = generate(config)
    profile_db = train(app.sources, [app.make_input(seed=1)])

    levels = [
        ("NAIM off", NaimLevel.OFF),
        ("IR compaction", NaimLevel.IR_COMPACT),
        ("+ST compaction", NaimLevel.ST_COMPACT),
        ("offload to disk", NaimLevel.OFFLOAD),
    ]
    table = Table(
        "Figure 5: HLO time vs memory per NAIM level (gcc-like, %d lines)"
        % app.source_lines(),
        ["configuration", "hlo_seconds", "hlo_peak_MB", "compactions",
         "uncompactions", "repo_fetches"],
    )
    series = []
    import tempfile

    for label, level in levels:
        naim = NaimConfig.pinned(level, cache_pools=cache_pools)
        repo_dir = None
        if level is NaimLevel.OFFLOAD:
            repo_dir = tempfile.mkdtemp(prefix="naim_fig5_")
        options = CompilerOptions(
            opt_level=4,
            pbo=True,
            naim=naim,
            hlo=_aggressive_hlo(),
            repository_dir=repo_dir,
        )
        build = Compiler(options).build(app.sources, profile_db=profile_db)
        assert build.hlo_result is not None
        stats = build.hlo_result.loader.stats
        hlo_seconds = build.timings.phases.get("hlo", 0.0)
        peak = build.hlo_result.peak_bytes
        table.add_row(
            label,
            "%.3f" % hlo_seconds,
            "%.2f" % fmt_mb(peak),
            stats.compactions,
            stats.uncompactions,
            stats.repository_fetches,
        )
        series.append(
            {"level": label, "seconds": hlo_seconds, "bytes": peak}
        )
        if repo_dir is not None:
            import shutil

            shutil.rmtree(repo_dir, ignore_errors=True)
    table.add_note("expected shape: memory falls and time rises down the rows")
    return FigureResult("figure5", table, {"series": series})


# -- Figure 6 ------------------------------------------------------------------------


def run_figure6(
    percents: Optional[List[float]] = None,
    scale: float = 1.0,
) -> FigureResult:
    """Compile time and run time vs selectivity percentage (mcad1-like).

    The paper's shape: run time saturates once roughly 20% of the code
    (about 5% of call sites) is compiled with CMO+PBO, while compile
    time keeps growing with the amount of code optimized.
    """
    if percents is None:
        percents = [1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 70.0, 100.0]
    config = mcad_suite(scale)[0]
    app = generate(config)
    profile_db = train(app.sources, [app.make_input(seed=1)])
    ref_input = app.make_input(seed=1)
    total_lines = app.source_lines()

    table = Table(
        "Figure 6: compile time & run time vs selectivity (mcad1-like, "
        "%d lines)" % total_lines,
        ["selectivity_%", "cmo_lines", "line_frac_%", "compile_s",
         "run_Mcycles", "speedup_vs_PBO"],
    )

    # The 0% point: PBO alone (+O2 +P), the paper's left axis end.
    pbo_only = _build_and_run(
        app, CompilerOptions(opt_level=2, pbo=True), profile_db, ref_input
    )
    table.add_row("0 (PBO only)", 0, "0.0",
                  "%.2f" % pbo_only["build_seconds"],
                  "%.3f" % (pbo_only["cycles"] / 1e6), "1.000")
    series = [
        {
            "percent": 0.0,
            "cmo_lines": 0,
            "compile_seconds": pbo_only["build_seconds"],
            "cycles": pbo_only["cycles"],
        }
    ]
    for percent in percents:
        options = CompilerOptions(
            opt_level=4,
            pbo=True,
            selectivity_percent=percent,
            hlo=_aggressive_hlo(),
        )
        outcome = _build_and_run(app, options, profile_db, ref_input)
        assert outcome["value"] == pbo_only["value"]
        build: BuildResult = outcome["build"]
        assert build.plan is not None
        table.add_row(
            "%.0f" % percent,
            build.plan.selected_lines,
            "%.1f" % (100.0 * build.plan.line_fraction),
            "%.2f" % outcome["build_seconds"],
            "%.3f" % (outcome["cycles"] / 1e6),
            "%.3f" % speedup(pbo_only["cycles"], outcome["cycles"]),
        )
        series.append(
            {
                "percent": percent,
                "cmo_lines": build.plan.selected_lines,
                "compile_seconds": outcome["build_seconds"],
                "cycles": outcome["cycles"],
            }
        )
    table.add_note("expected: speedup saturates well before 100% selectivity")
    return FigureResult("figure6", table, {"series": series})


# -- Section 8 history (memory per line) ---------------------------------------------------


def run_history(scale: float = 2.0) -> FigureResult:
    """Memory per source line across the framework's releases (§8).

    HP-UX 9.0 kept everything expanded (~1.7 KB/line); 10.01 added IR
    compaction (~0.9 KB/line); 10.20 added full NAIM + thresholds.
    """
    config = next(c for c in spec_like_suite() if c.name == "gcc_like")
    if scale != 1.0:
        config = config.scaled(scale)
    app = generate(config)
    profile_db = train(app.sources, [app.make_input(seed=1)])
    lines = app.source_lines()

    releases = [
        ("HP-UX 9.0 (expanded)", NaimConfig.pinned(NaimLevel.OFF)),
        ("HP-UX 10.01 (IR compaction)",
         NaimConfig.pinned(NaimLevel.IR_COMPACT, cache_pools=8)),
        ("HP-UX 10.20 (full NAIM)",
         NaimConfig.pinned(NaimLevel.OFFLOAD, cache_pools=8)),
    ]
    table = Table(
        "Section 8 history: HLO memory per line (gcc-like, %d lines)" % lines,
        ["release", "base_rep_MB", "KB_per_line"],
    )
    series = []
    for label, naim in releases:
        options = CompilerOptions(opt_level=4, pbo=True, naim=naim,
                                  hlo=_aggressive_hlo())
        build = Compiler(options).build(app.sources, profile_db=profile_db)
        assert build.hlo_result is not None
        # The paper's KB/line figures describe the *base representation*
        # -- all code read in, before optimization grows it -- which is
        # the accountant's "scanned" sample.
        samples = dict(build.accountant.samples)
        base = samples.get("scanned", build.hlo_result.peak_bytes)
        kb_per_line = base / 1024.0 / lines
        table.add_row(label, "%.2f" % fmt_mb(base), "%.2f" % kb_per_line)
        series.append({"release": label, "kb_per_line": kb_per_line})
    table.add_note("paper: 1.7 KB/line -> 0.9 KB/line -> NAIM (sub-linear)")
    table.add_note("our relocatable encoding is denser than HP's, so the "
                   "10.01 row lands below the paper's 0.9 KB/line")
    return FigureResult("history", table, {"series": series})


# -- NAIM / inliner ablations (§4.3) -------------------------------------------------------


def run_naim_ablation(scale: float = 2.0) -> FigureResult:
    """Loader-cache sizing and inline-scheduling locality ablations.

    Cache sizing runs on the gcc-like app.  The pair-scheduling ablation
    uses a dispatcher-heavy micro-workload (one caller with many call
    sites spread over several callee modules) because that is the shape
    the paper's §4.3 scheduling optimizes: "cross-module inlines from
    the same pair of modules are processed one after another".
    """
    config = next(c for c in spec_like_suite() if c.name == "gcc_like")
    if scale != 1.0:
        config = config.scaled(scale)
    app = generate(config)
    profile_db = train(app.sources, [app.make_input(seed=1)])

    table = Table(
        "NAIM ablations (gcc-like, %d lines; dispatcher micro-workload)"
        % app.source_lines(),
        ["configuration", "hlo_seconds", "uncompactions", "cache_hits",
         "pair_locality_%"],
    )
    series = []

    def run_cache_point(label: str, cache_pools: int):
        naim = NaimConfig.pinned(NaimLevel.IR_COMPACT, cache_pools=cache_pools)
        options = CompilerOptions(opt_level=4, pbo=True, naim=naim,
                                  hlo=_aggressive_hlo())
        build = Compiler(options).build(app.sources, profile_db=profile_db)
        assert build.hlo_result is not None
        stats = build.hlo_result.loader.stats
        seconds = build.timings.phases.get("hlo", 0.0)
        table.add_row(label, "%.3f" % seconds, stats.uncompactions,
                      stats.cache_hits, "-")
        series.append(
            {"label": label, "seconds": seconds,
             "uncompactions": stats.uncompactions, "locality": None}
        )

    for cache in (2, 8, 32):
        run_cache_point("cache=%d pools" % cache, cache)

    dispatcher = _dispatcher_workload()
    for schedule, label in ((True, "dispatcher, pair scheduling"),
                            (False, "dispatcher, no pair scheduling")):
        hlo = _aggressive_hlo()
        hlo.inline_schedule_by_module_pair = schedule
        hlo.inline_program_growth_factor = 40.0
        hlo.inline_caller_max_instrs = 100000
        hlo.inline_routine_growth_factor = 1000.0
        naim = NaimConfig.pinned(NaimLevel.IR_COMPACT, cache_pools=2)
        options = CompilerOptions(opt_level=4, naim=naim, hlo=hlo)
        build = Compiler(options).build(dispatcher)
        assert build.hlo_result is not None
        stats = build.hlo_result.loader.stats
        trace = build.hlo_result.inline_stats.callee_module_trace
        adjacent = sum(
            1 for i in range(1, len(trace)) if trace[i] == trace[i - 1]
        )
        locality = 100.0 * adjacent / max(len(trace) - 1, 1)
        seconds = build.timings.phases.get("hlo", 0.0)
        table.add_row(label, "%.3f" % seconds, stats.uncompactions,
                      stats.cache_hits, "%.1f" % locality)
        series.append(
            {"label": label, "seconds": seconds,
             "uncompactions": stats.uncompactions, "locality": locality}
        )
    table.add_note("pair scheduling groups a caller's inlines by callee "
                   "module (paper section 4.3)")
    return FigureResult("ablation_naim", table, {"series": series})


def _dispatcher_workload(n_callee_modules: int = 4,
                         callees_per_module: int = 3,
                         repeats: int = 5):
    """One dispatcher whose call sites interleave callee modules, with
    every callee called several times -- the §4.3 scheduling stress
    case.  Grouping a callee's inlines together keeps its pool in a
    tiny loader cache; interleaving evicts it between every splice."""
    sources = {}
    for m in range(n_callee_modules):
        lines = []
        for f in range(callees_per_module):
            lines.append(
                "func cm%d_f%d(x) { return x * %d + %d; }"
                % (m, f, m + 2, f + 1)
            )
        sources["cm%d" % m] = "\n".join(lines) + "\n"
    calls = []
    for _rep in range(repeats):
        for m in range(n_callee_modules):  # interleave modules
            for f in range(callees_per_module):
                calls.append("    acc = acc + cm%d_f%d(acc);" % (m, f))
    sources["main"] = (
        "func main() {\n    var acc = 1;\n" + "\n".join(calls)
        + "\n    return acc;\n}\n"
    )
    return sources


# -- §6.2 stale / unrepresentative profiles --------------------------------------------


def run_stale_profiles(scale: float = 0.5) -> FigureResult:
    """Benefit of PBO+CMO under representative vs unrepresentative
    training data (paper §6.2).

    "It is possible that the training sets will not exercise parts of
    the applications that are important to some users" -- selectivity
    then optimizes the wrong code.  We train once on the real (Zipf)
    input distribution and once on a uniform distribution, then
    benchmark both builds on the real distribution.
    """
    config = mcad_suite(scale)[0]
    app = generate(config)
    bench_input = app.make_input(seed=2)

    representative = train(app.sources, [app.make_input(seed=1)])
    unrepresentative = train(
        app.sources, [app.make_input(seed=1, uniform=True)]
    )

    baseline = _build_and_run(
        app, CompilerOptions(opt_level=2), None, bench_input
    )
    table = Table(
        "Stale-profile ablation (mcad1-like, %d lines): +O4 +P sel=20%%"
        % app.source_lines(),
        ["training data", "run_Mcycles", "speedup_vs_O2"],
    )
    table.add_row("(baseline +O2)", "%.3f" % (baseline["cycles"] / 1e6),
                  "1.000")
    series = [{"training": "baseline", "cycles": baseline["cycles"]}]
    for label, profile_db in (
        ("representative (Zipf)", representative),
        ("unrepresentative (uniform)", unrepresentative),
    ):
        outcome = _build_and_run(
            app,
            CompilerOptions(opt_level=4, pbo=True, selectivity_percent=20,
                            hlo=_aggressive_hlo()),
            profile_db,
            bench_input,
        )
        assert outcome["value"] == baseline["value"]
        table.add_row(label, "%.3f" % (outcome["cycles"] / 1e6),
                      "%.3f" % speedup(baseline["cycles"],
                                       outcome["cycles"]))
        series.append({"training": label, "cycles": outcome["cycles"]})
    table.add_note("unrepresentative training spreads selectivity over the "
                   "wrong call sites (paper section 6.2)")
    return FigureResult("stale_profiles", table, {"series": series})


#: Registry for the CLI and the EXPERIMENTS.md builder.

FIGURES = {
    "figure1": run_figure1,
    "stale_profiles": run_stale_profiles,
    "figure4": run_figure4,
    "figure5": run_figure5,
    "figure6": run_figure6,
    "history": run_history,
    "ablation_naim": run_naim_ablation,
}
