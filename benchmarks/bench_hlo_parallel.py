"""Partitioned parallel LTRANS: in-process and process transports vs serial.

Builds a synthetic ~28-module program at +O4 (NAIM in OFFLOAD mode,
so routine pools round-trip through the repository) serially, then
partitioned: once in the link process (what ``auto`` picks for one
worker) and on worker processes fed by one shared-memory blob at
``--hlo-jobs`` 1/2/4.  Every image is byte-compared against the
serial build; the table reports the LTRANS phase wall-clock plus the
process transport's overheads (spawn time, published blob size).

The phase being compared:

* serial: phase-5 scalar pipeline + the codegen splice loop
  (``hlo.phase_seconds["scalar"] + timings["codegen_cmo"]``) -- each
  routine's pool is expanded twice, once per phase;
* partitioned: the fused per-partition scalar+codegen pass
  (``timings["codegen_cmo"]``, which includes partitioning, blob
  publication, worker dispatch and the stats fold).

The in-process row prices the wire round-trip (compact, publish,
decode) with no parallelism to pay for it.  Process rows are where
real CPU parallelism appears -- on a multi-core machine.

``--check`` guards against regression machine-independently: byte
identity must hold everywhere, and the committed speedup-ratio floor
(``baselines/hlo_parallel_baseline.json``) is enforced only when the
runner has at least ``min_cpus`` schedulable cores, so a 1-core CI
shard checks correctness without asserting parallelism it cannot
express.  ``--update-baseline`` rewrites the floor from this run.

Run standalone (``python benchmarks/bench_hlo_parallel.py [--quick]
[--check]``) or via ``pytest benchmarks/bench_hlo_parallel.py -s``.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import save_json, save_result

from repro.driver.compiler import Compiler
from repro.driver.options import CompilerOptions
from repro.linker.objects import encode_executable
from repro.naim.config import NaimConfig, NaimLevel
from repro.sched.procpool import cpu_count
from repro.synth import WorkloadConfig, generate

BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "baselines", "hlo_parallel_baseline.json",
)

#: ``(hlo_jobs, hlo_backend)`` per row: the in-process transport (what
#: "auto" resolves one worker to), then worker processes.
SHAPES = ((1, "auto"), (1, "processes"), (2, "processes"), (4, "processes"))

#: When rewriting the baseline, record this fraction of the measured
#: speedup as the floor (generous: machines and schedulers vary).
FLOOR_FRACTION = 0.75


def _build(sources, hlo_jobs=1, hlo_partitions=None, hlo_backend="auto"):
    options = CompilerOptions(
        opt_level=4,
        naim=NaimConfig.pinned(NaimLevel.OFFLOAD, cache_pools=4),
        hlo_jobs=hlo_jobs,
        hlo_partitions=hlo_partitions,
        hlo_backend=hlo_backend,
    )
    return Compiler(options).build(sources)


def _ltrans_seconds(build, serial):
    codegen = build.timings.phases.get("codegen_cmo", 0.0)
    if serial:
        return build.hlo_result.phase_seconds.get("scalar", 0.0) + codegen
    return codegen


def _wpa_seconds(build):
    return sum(
        value
        for key, value in build.hlo_result.phase_seconds.items()
        if key.startswith("wpa")
    )


def run_bench(quick=False):
    n_modules = 8 if quick else 28
    app = generate(
        WorkloadConfig("hlopar", n_modules=n_modules,
                       routines_per_module=6, n_features=4,
                       dispatch_count=120, seed=41,
                       scale_note="parallel-LTRANS bench")
    )

    serial = _build(app.sources)
    reference = encode_executable(serial.executable)
    serial_secs = _ltrans_seconds(serial, serial=True)

    rows = []
    settings = []
    byte_identical = True
    for jobs, requested in SHAPES:
        # hlo_jobs=1 alone means "serial"; pin the partition count so
        # every row exercises the partitioned path.
        build = _build(app.sources, hlo_jobs=jobs, hlo_partitions=4,
                       hlo_backend=requested)
        if encode_executable(build.executable) != reference:
            byte_identical = False
        secs = _ltrans_seconds(build, serial=False)
        stats = build.ltrans_stats or {}
        backend = stats.get("backend", requested)
        speedup = serial_secs / secs if secs else 0.0
        entry = {
            "backend": backend,
            "hlo_jobs": jobs,
            "effective_jobs": stats.get("effective_jobs", jobs),
            "ltrans_seconds": secs,
            "speedup_vs_serial": speedup,
            "prefetches": build.hlo_result.loader.stats.prefetches,
            "wpa_seconds": _wpa_seconds(build),
            "scalar_seconds":
                build.hlo_result.phase_seconds.get("scalar", 0.0),
            "wpa_peak_bytes": build.hlo_result.wpa_peak_bytes,
            "coordinator_peak_bytes": build.hlo_result.peak_bytes,
        }
        extra = ""
        if backend == "processes":
            entry["spawn_seconds"] = stats.get("spawn_seconds", 0.0)
            entry["blob_bytes"] = stats.get("blob_bytes", 0)
            entry["workers"] = stats.get("workers", 0)
            extra = ("  [%d workers, spawn %.3fs, blob %.1fKiB]"
                     % (entry["workers"], entry["spawn_seconds"],
                        entry["blob_bytes"] / 1024.0))
        settings.append(entry)
        rows.append(
            "  %-30s %8.3fs  (x%.2f vs serial)%s"
            % ("%s (jobs=%d->%d)"
               % (backend, jobs, entry["effective_jobs"]),
               secs, speedup, extra)
        )

    best_processes = max(
        (s["speedup_vs_serial"] for s in settings
         if s["backend"] == "processes"),
        default=0.0,
    )

    lines = [
        "parallel LTRANS bench: %d modules, %d source lines "
        "(+O4, NAIM offload, %d cpus)"
        % (len(app.sources), app.source_lines(), cpu_count()),
        "",
        "  %-30s %8.3fs  (scalar %.3fs + codegen %.3fs, "
        "two loads per routine)"
        % ("serial scalar+codegen", serial_secs,
           serial.hlo_result.phase_seconds.get("scalar", 0.0),
           serial.timings.phases.get("codegen_cmo", 0.0)),
    ] + rows + [
        "",
        "  best: processes x%.2f vs serial" % best_processes,
        "  outputs byte-identical across backends and jobs: %s"
        % ("yes" if byte_identical else "NO"),
        "  note: the in-process row pays the wire round-trip with no "
        "parallelism; process rows scale with cores.",
    ]
    payload = {
        "quick": bool(quick),
        "modules": len(app.sources),
        "source_lines": app.source_lines(),
        "cpus": cpu_count(),
        "serial_ltrans_seconds": serial_secs,
        "serial_scalar_seconds":
            serial.hlo_result.phase_seconds.get("scalar", 0.0),
        "serial_codegen_seconds":
            serial.timings.phases.get("codegen_cmo", 0.0),
        "serial_wpa_seconds": _wpa_seconds(serial),
        "serial_wpa_peak_bytes": serial.hlo_result.wpa_peak_bytes,
        "serial_coordinator_peak_bytes": serial.hlo_result.peak_bytes,
        "partitioned": settings,
        "best_speedup_processes": best_processes,
        "byte_identical": byte_identical,
    }
    return "\n".join(lines), payload


def check(payload):
    """Machine-independent regression guard; returns (baseline,
    failures)."""
    with open(BASELINE_PATH) as handle:
        baseline = json.load(handle)
    failures = []
    if not payload["byte_identical"]:
        failures.append("images diverged across backends/jobs")
    if payload["cpus"] >= baseline["min_cpus"]:
        floor = baseline["min_speedup_processes"]
        measured = payload["best_speedup_processes"]
        if measured < floor:
            failures.append(
                "process-backend speedup x%.2f below committed floor "
                "x%.2f (on %d cpus)"
                % (measured, floor, payload["cpus"])
            )
    return baseline, failures


def test_hlo_parallel_bench():
    text, payload = run_bench(quick=True)
    print()
    print(text)
    assert payload["byte_identical"]
    save_result("hlo_parallel_quick", text)
    save_json("hlo_parallel", payload)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="8 modules instead of 28")
    parser.add_argument("--check", action="store_true",
                        help="fail on regression vs the committed "
                        "speedup-ratio floor (skipped below min_cpus)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the committed floor from this run")
    args = parser.parse_args(argv)
    text, payload = run_bench(quick=args.quick)
    print(text)
    save_result("hlo_parallel", text)
    save_json("hlo_parallel", payload)
    if args.check:
        baseline, failures = check(payload)
        if payload["cpus"] < baseline["min_cpus"]:
            print("check: byte-identity ok; speedup floor skipped "
                  "(%d < %d cpus)"
                  % (payload["cpus"], baseline["min_cpus"]))
        if failures:
            for failure in failures:
                print("REGRESSION: %s" % failure, file=sys.stderr)
            return 1
        print("check: ok")
    if args.update_baseline:
        baseline = {"min_cpus": 4, "min_speedup_processes": 1.6}
        if cpu_count() >= baseline["min_cpus"]:
            baseline["min_speedup_processes"] = round(
                payload["best_speedup_processes"] * FLOOR_FRACTION, 2
            )
        with open(BASELINE_PATH, "w") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("baseline -> %s" % BASELINE_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
