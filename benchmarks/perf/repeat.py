"""Does the benchmark agree with itself?  Two sets of runs of one commit.

    python3 benchmarks/perf/repeat.py [--runs N] [--workload W ...] [--quick]

For each workload, two sets of ``N`` runs are made (set A then set B, run
``i`` of either set with ``--seed seed+i``), untraced and traced.  Per
workload and end-to-end metric it prints both medians, their relative
difference, each set's spread (distance between the first and third
quartile as a share of the median, when ``N`` >= 4) and the bound from
``BENCHMARK.json``.  It fails if

* a set's spread exceeds the bound (``setup_s`` excepted),
* set B's median is worse than set A's by more than the bound,
* a deterministic metric (``peak_model_bytes``, ``vm_cycles``,
  ``image_bytes``) or any per-layer count differs between the two runs of
  one seed, or
* any run reports a failed check.

``--runs 1`` is the quick "run the suite twice" comparison; ``--runs 10``
is the acceptance the benchmark was defined under (README, "Steadiness").
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))

DETERMINISTIC = ("peak_model_bytes", "vm_cycles", "image_bytes")
TIME_UNITS = ("s", "lines/s", "instrs/s", "MiB")


def run_once(workload: str, seed: int, quick: bool) -> Dict[str, object]:
    """One untraced plus one traced run; the last stdout line as JSON."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed), "--trace"]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = json.loads(done.stdout.strip().splitlines()[-1])
    line["exit_code"] = done.returncode
    return line


def spread(values: List[float]) -> float:
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        catalogue = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in catalogue["workloads"]])
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in catalogue["workloads"]]
    counts = [m["name"] for m in catalogue["per_layer"]
              if m["unit"] not in TIME_UNITS]

    problems: List[str] = []
    for workload in workloads:
        sets = [
            [run_once(workload, args.seed + i, args.quick)
             for i in range(args.runs)]
            for _ in "AB"
        ]
        print("%s  (%d runs per set)" % (workload, args.runs))
        print("  %-18s %14s %14s %8s %8s %8s %6s"
              % ("metric", "median A", "median B", "B vs A", "spread A",
                 "spread B", "bound"))
        for run_a, run_b in zip(*sets):
            for run in (run_a, run_b):
                if run["exit_code"] or not run["correct"]:
                    problems.append("%s: a run failed its checks" % workload)
            for name in list(DETERMINISTIC) + counts:
                a = run_a["metrics"][name]["value"]
                b = run_b["metrics"][name]["value"]
                if a != b:
                    problems.append("%s: %s differs between two runs of one "
                                    "seed: %r vs %r" % (workload, name, a, b))
        for metric in catalogue["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[run["metrics"][name]["value"] for run in runs]
                      for runs in sets]
            medians = [statistics.median(v) for v in values]
            worse = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            spreads = [spread(v) if args.runs >= 4 else float("nan")
                       for v in values]
            print("  %-18s %14.4f %14.4f %+7.2f%% %7.2f%% %7.2f%% %5.0f%%"
                  % (name, medians[0], medians[1], 100 * worse,
                     100 * spreads[0], 100 * spreads[1], 100 * bound))
            if worse > bound:
                problems.append("%s: %s median worse by %.1f%% > %.0f%%"
                                % (workload, name, 100 * worse, 100 * bound))
            for value in spreads:
                if name != "setup_s" and value > bound:
                    problems.append("%s: %s spread %.1f%% > %.0f%%"
                                    % (workload, name, 100 * value,
                                       100 * bound))
        overheads = [run["trace_overhead_ratio"] for runs in sets
                     for run in runs]
        print("  trace_overhead_ratio (median of all runs): %.3f"
              % statistics.median(overheads))
        sys.stdout.flush()
    for problem in problems:
        print("FAILED: %s" % problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
