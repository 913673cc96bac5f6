"""The link-pipeline benchmark: one command, every metric, outputs checked.

    python3 benchmarks/perf/run.py [--workload W] [--seed N] [--seconds S]
                                   [--trace [0|1]] [--out FILE] [--quick]

Without ``--workload`` every workload of ``BENCHMARK.json`` runs in turn.
``--trace 0`` (the default) measures the end-to-end metrics with tracing
off, ``--trace 1`` the per-layer metrics with spans recorded, and a bare
``--trace`` does both and reports ``trace_overhead_ratio``.  The last
line of standard output is one JSON object; the exit code is non-zero if
any check failed.  See README.md beside this file.

Each workload is measured in a fresh child process (``measure.py``).
This process then checks the child's outputs against oracles that do not
go through the compiler under test's optimizer: the unoptimized IL run on
``repro.interp``, and a clean serial build where an image must match.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, ".work")

if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit("benchmarks/perf: no src/repro beside %s; run from a checkout "
             "of the whole repository" % HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

from repro.driver import Compiler  # noqa: E402
from repro.frontend import compile_sources  # noqa: E402
from repro.interp import run_program  # noqa: E402
from repro.linker.objects import encode_executable  # noqa: E402
from repro.sched.procpool import cpu_count  # noqa: E402

from hostspeed import REF_NOMINAL_S, HostSpeed  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    Workload,
    check_input,
    edited_sources,
    make_app,
    make_options,
    serial_reference,
)

def load_catalogue() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- Run header ---------------------------------------------------------------


def git_commit() -> str:
    """HEAD's hash read from ``.git`` (no subprocess; absent in exports)."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git_dir, head[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def header(speed: HostSpeed) -> Dict[str, object]:
    return {
        "nproc": cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "ref_loop_s": speed.last,
        "ref_nominal_s": REF_NOMINAL_S,
    }


# -- One workload ---------------------------------------------------------------


def run_child(spec: Dict[str, object], work_dir: str) -> Dict[str, object]:
    """Measure ``spec`` in a fresh interpreter and return what it wrote."""
    spec_path = os.path.join(work_dir, "spec.json")
    out_path = os.path.join(work_dir, "result.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    # Anything the compiler puts in a temp dir stays inside the checkout.
    env = dict(os.environ, TMPDIR=work_dir)
    # The driver gives a run 180 s; a child stuck beyond this is killed.
    subprocess.run(
        [sys.executable, os.path.join(HERE, "measure.py"), spec_path, out_path],
        check=True, env=env, cwd=ROOT, timeout=150,
    )
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle)


def interpret(sources: Dict[str, str], inputs, speed: HostSpeed):
    """The oracle: unoptimized IL of ``sources`` on ``repro.interp``.

    Returns the run's result and the oracle's own per-layer numbers.
    """
    program = compile_sources(sources)
    speed.probe_if_due()
    before = speed.last
    tick = time.perf_counter()
    outcome = run_program(program, inputs=inputs)
    seconds = time.perf_counter() - tick
    speed.probe()
    return outcome, {
        "interp.run_s": seconds * speed.scale_since(before),
        "interp.steps": outcome.steps,
        "frontend.il_instrs": program.instr_count(),
    }


def check_outputs(workload: Workload, seed: int, quick: bool,
                  child: Dict[str, object],
                  speed: HostSpeed) -> Dict[str, object]:
    """Oracle checks of one child run; also the oracle's own cost."""
    app = make_app(workload, quick)
    inputs = check_input(app, seed)
    problems: List[str] = []

    # The semantic oracle, on the sources the final image was built from.
    if workload.incremental:
        sources = edited_sources(app, seed, int(child["n_edits"]))
        oracle, _ = interpret(sources, inputs, speed)
        # How many edits fit into the run varies; the oracle's cost is
        # reported for the sources set-up leaves, which do not.
        _, per_layer = interpret(edited_sources(app, seed, 0), inputs, speed)
    else:
        sources = app.sources
        oracle, per_layer = interpret(sources, inputs, speed)
    attempted = 1
    if oracle.value != child["check_value"]:
        problems.append("image returned %r, interpreter on unoptimized IL %r"
                        % (child["check_value"], oracle.value))

    # Where another path produced the image, a clean serial build must
    # produce the same bytes.
    if workload.parallel or workload.incremental:
        attempted += 1
        clean = Compiler(make_options(serial_reference(workload))).build(sources)
        clean_sha = hashlib.sha256(
            encode_executable(clean.executable)).hexdigest()
        if clean_sha != child["final_image_sha"]:
            problems.append("image differs from a clean serial build")

    return {"attempted": attempted, "problems": problems,
            "per_layer": per_layer}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 quick: bool, catalogue: Dict[str, object],
                 speed: HostSpeed) -> Dict[str, object]:
    """One child run plus its checks, as named metrics with units."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    trace_out = None
    if trace:
        trace_dir = os.path.join(WORK_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(trace_dir, workload.name + ".json")
    try:
        child = run_child({
            "workload": workload.name, "seed": seed, "seconds": seconds,
            "trace": trace, "quick": quick, "work_dir": work_dir,
            "trace_out": trace_out,
        }, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    checks = check_outputs(workload, seed, quick, child, speed)

    if trace:
        values = dict(child["per_layer"], **checks["per_layer"])
        names = catalogue["per_layer"]
    else:
        values = child["end_to_end"]
        names = catalogue["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        raise SystemExit("%s: metrics not measured: %s"
                         % (workload.name, missing))
    problems = list(child["problems"]) + checks["problems"]
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "attempted": int(child["attempted"]) + checks["attempted"],
        "failed": int(child["failed"]) + len(checks["problems"]),
        "problems": problems,
        "operations": child["operations"],
        "build_s": child["end_to_end"]["build_s"],
        "host_scale": child["host_scale"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in names
        },
        # Beyond the named metrics: what the smoke test and README read.
        "self_s": child.get("self_s", {}),
        "self_time_coverage": child.get("self_time_coverage"),
        "wrapper_calls": child.get("wrapper_calls", {}),
        "reference_image_sha": child["reference_image_sha"],
        "trace_out": trace_out,
    }


# -- Output -------------------------------------------------------------------


def print_result(result: Dict[str, object]) -> None:
    print("%s  seed=%d  %s  operations=%d  host_scale=%.3f  checks: "
          "%d attempted, %d failed (error_rate %.4f)" % (
              result["workload"], result["seed"],
              "traced" if result["trace"] else "untraced",
              result["operations"], result["host_scale"],
              result["attempted"], result["failed"],
              result["failed"] / result["attempted"]))
    for name, metric in result["metrics"].items():
        print("  %-34s %16.6f %s" % (name, metric["value"], metric["unit"]))
    if result["self_s"]:
        print("  self time per layer (s): " + ", ".join(
            "%s=%.4f" % item for item in sorted(result["self_s"].items())))
    if result["trace_out"]:
        print("  chrome trace of the last operation: %s" % result["trace_out"])
    for problem in result["problems"]:
        print("  FAILED: %s" % problem)


def contract_line(results: List[Dict[str, object]]) -> Dict[str, object]:
    """The four keys the driver reads, merged over one workload's runs."""
    metrics: Dict[str, object] = {}
    for result in results:
        metrics.update(result["metrics"])
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    catalogue = load_catalogue()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(catalogue["run_seconds"]),
                        help="length of each run's timed section")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"))
    parser.add_argument("--out", help="write every result as JSON here")
    parser.add_argument("--quick", action="store_true",
                        help="tiny program, fixed few operations: smoke "
                             "test only, never for reported numbers")
    args = parser.parse_args(argv)

    speed = HostSpeed()
    head = header(speed)
    print("host: " + "  ".join("%s=%s" % item for item in head.items()))
    names = [args.workload] if args.workload else [
        w["name"] for w in catalogue["workloads"]]
    traces = {"0": [False], "1": [True], "both": [False, True]}[args.trace]
    report: Dict[str, object] = {"header": head, "workloads": {}}
    lines: Dict[str, object] = {}
    for name in names:
        results = [
            run_workload(WORKLOADS[name], args.seed, args.seconds, trace,
                         args.quick, catalogue, speed)
            for trace in traces
        ]
        for result in results:
            print_result(result)
        line = contract_line(results)
        if len(results) == 2:
            ratio = results[1]["build_s"] / results[0]["build_s"]
            print("  %-34s %16.6f ratio" % ("trace_overhead_ratio", ratio))
            line["trace_overhead_ratio"] = ratio
        lines[name] = line
        report["workloads"][name] = {"runs": results, **line}

    failed = sum(line["failed"] for line in lines.values())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
    if args.workload:
        print(json.dumps(lines[args.workload]))
    else:
        print(json.dumps({
            "correct": failed == 0,
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": failed,
            "workloads": lines,
        }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
