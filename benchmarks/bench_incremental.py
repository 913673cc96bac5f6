"""Incremental CMO: single-module edit vs full re-optimization.

Builds a synthetic 24-module program at +O4 with the incremental
engine, edits one module, rebuilds, and reports how much of the
link-time optimization work was skipped: modules re-optimized vs
spliced from the codegen cache, and wall-clock for clean vs
incremental links.  Byte-identity against a clean build of the edited
sources is asserted, not sampled -- the cache is a shortcut, never a
semantic input.

The acceptance bar (paper §6.1 economics): a single-module edit on a
window-limited call graph must re-optimize at most 30% of the CMO
modules.

Run standalone (``python benchmarks/bench_incremental.py [--quick]``)
or via ``pytest benchmarks/bench_incremental.py -s``.
"""

import argparse
import os
import re
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import save_result

from repro.driver.build import BuildEngine
from repro.driver.compiler import Compiler
from repro.driver.options import CompilerOptions
from repro.linker.objects import encode_executable
from repro.synth import WorkloadConfig, generate

#: Re-optimizing more than this fraction of modules on a one-module
#: edit means the summaries are too coarse.
MAX_REOPT_FRACTION = 0.30


def _make_app(quick):
    n_modules = 10 if quick else 24
    return generate(
        WorkloadConfig("incrbench", n_modules=n_modules,
                       routines_per_module=8, n_features=5,
                       dispatch_count=120, module_window=2,
                       seed=41, scale_note="incremental-CMO bench")
    )


def _edit_live_module(app):
    """Perturb a multiplier constant in a reachable routine.

    Walks modules in name order and picks the first whose edit the
    incremental engine actually has to honor (``m0`` feeds the feature
    roots, so in practice this is an early module).
    """
    for name in sorted(app.sources):
        if name == "main":
            continue
        edited_source, count = re.subn(
            r"\* (\d+) \+",
            lambda m: "* %d +" % (int(m.group(1)) + 1),
            app.sources[name],
            count=1,
        )
        if count:
            edited = dict(app.sources)
            edited[name] = edited_source
            return name, edited
    raise RuntimeError("no editable site in generated sources")


def run_bench(quick=False):
    app = _make_app(quick)
    options = CompilerOptions(opt_level=4)

    engine = BuildEngine(options, incremental=True)
    start = time.perf_counter()
    first, _ = engine.build(app.sources)
    first_secs = time.perf_counter() - start

    edited_name, edited = _edit_live_module(app)
    start = time.perf_counter()
    second, _ = engine.build(edited)
    incr_secs = time.perf_counter() - start

    start = time.perf_counter()
    clean = Compiler(options).build(edited)
    clean_secs = time.perf_counter() - start

    assert encode_executable(second.executable) == (
        encode_executable(clean.executable)
    ), "incremental rebuild must be byte-identical to a clean build"

    incr = second.incr_report
    n_cmo = len(incr.reused) + len(incr.reoptimized)
    fraction = len(incr.reoptimized) / n_cmo if n_cmo else 0.0
    assert fraction <= MAX_REOPT_FRACTION, (
        "edit to %s re-optimized %d/%d modules (%.0f%% > %.0f%% budget)"
        % (edited_name, len(incr.reoptimized), n_cmo,
           100.0 * fraction, 100.0 * MAX_REOPT_FRACTION)
    )

    lines = [
        "incremental CMO bench: %d modules, %d source lines (+O4)"
        % (len(app.sources), app.source_lines()),
        "",
        "  edit: one constant in module %r" % edited_name,
        "  %-30s %8.3fs" % ("first build (cold state)", first_secs),
        "  %-30s %8.3fs" % ("clean rebuild of edit", clean_secs),
        "  %-30s %8.3fs  (x%.2f)"
        % ("incremental rebuild", incr_secs,
           clean_secs / incr_secs if incr_secs else 0.0),
        "",
        "  cmo modules: %d reused, %d re-optimized (%.0f%% <= %.0f%% budget)"
        % (len(incr.reused), len(incr.reoptimized),
           100.0 * fraction, 100.0 * MAX_REOPT_FRACTION),
        "  summary-changed: %s" % (", ".join(incr.changed_modules) or "-"),
        "  outputs byte-identical to clean build: yes",
    ]
    return "\n".join(lines)


def test_incremental_bench():
    text = run_bench(quick=True)
    print()
    print(text)
    save_result("incremental_quick", text)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="10 modules instead of 24")
    args = parser.parse_args(argv)
    text = run_bench(quick=args.quick)
    print(text)
    save_result("incremental", text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
