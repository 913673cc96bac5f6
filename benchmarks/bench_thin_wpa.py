"""WPA from summaries: peak modeled memory vs routine-body count.

Builds the same synthetic program at +O4 across a >=4x range of scale
factors.  WPA phases 0-4.5 read only the ``RoutineFacts`` graph, record
their decisions in a replay plan, and bodies load lazily (per
partition) at phase 5; the table reports the WPA phase's wall-clock
and its peak modeled bytes (``MemoryAccountant`` peak at the end of
phase 4.5), beside the whole link's (``coordinator_peak_bytes``: the
summary graph is freed when the WPA ends, so LTRANS's bodies and code
generator set it once they outgrow the WPA).  The paper-scale claim
under test: WPA peak is bounded by the summary graph, so it stays flat
in routine-body count.

``--check`` (the CI ``thin-wpa-smoke`` job) enforces, machine
independently, body-count independence: WPA peak growth across the
>=4x scale sweep, normalized by routine growth, stays under the
committed ceiling in ``baselines/thin_wpa_baseline.json`` (the summary
graph itself grows with routine count, so the bound is relative, not
absolute).

Run standalone (``python benchmarks/bench_thin_wpa.py [--quick]
[--check]``) or via ``pytest benchmarks/bench_thin_wpa.py -s``.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import save_json, save_result

from repro.driver.compiler import Compiler
from repro.driver.options import CompilerOptions
from repro.naim.config import NaimConfig, NaimLevel
from repro.synth import WorkloadConfig, generate

BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "baselines", "thin_wpa_baseline.json",
)

#: Module counts per sweep point; the largest is >= 4x the smallest,
#: so a flat peak across the sweep demonstrates body-count
#: independence.
SCALES = (7, 14, 28)
SCALES_QUICK = (4, 8, 16)


def _build(sources):
    # OFFLOAD-pinned NAIM so the accountant models the real residency
    # discipline at scale (bodies round-trip through the repository);
    # without pressure every parsed body would simply stay expanded
    # and the peak would measure the front end, not WPA.
    options = CompilerOptions(
        opt_level=4,
        naim=NaimConfig.pinned(NaimLevel.OFFLOAD, cache_pools=4),
    )
    start = time.perf_counter()
    build = Compiler(options).build(sources)
    seconds = time.perf_counter() - start
    hlo = build.hlo_result
    return {
        "seconds": seconds,
        "wpa_seconds": sum(
            value for key, value in hlo.phase_seconds.items()
            if key.startswith("wpa")
        ),
        "scalar_seconds": hlo.phase_seconds.get("scalar", 0.0)
        + hlo.phase_seconds.get("scalar.replay", 0.0),
        "wpa_peak_bytes": hlo.wpa_peak_bytes,
        "coordinator_peak_bytes": hlo.peak_bytes,
        "routines": len(list(hlo.unit.routine_names())),
    }


def run_bench(quick=False):
    scales = SCALES_QUICK if quick else SCALES
    rows = []
    sweep = []
    for n_modules in scales:
        app = generate(
            WorkloadConfig("thinwpa%d" % n_modules, n_modules=n_modules,
                           routines_per_module=6, n_features=4,
                           dispatch_count=120, seed=41,
                           scale_note="thin-WPA bench")
        )
        point = _build(app.sources)
        point["n_modules"] = n_modules
        sweep.append(point)
        rows.append(
            "  %3d modules (%4d routines)   WPA peak %8d B   "
            "coordinator peak %8d B   WPA time %.3fs"
            % (n_modules, point["routines"], point["wpa_peak_bytes"],
               point["coordinator_peak_bytes"], point["wpa_seconds"])
        )

    peaks = [p["wpa_peak_bytes"] for p in sweep]
    flatness = max(peaks) / min(peaks) if min(peaks) else 0.0
    routine_growth = sweep[-1]["routines"] / sweep[0]["routines"]
    # The summary graph itself grows linearly with routine count, so
    # absolute flatness cannot be 1.0; body-count independence means
    # peak growth is a small fraction of routine growth.
    normalized_growth = flatness / routine_growth if routine_growth else 0.0
    lines = [
        "thin-WPA bench: %s scale sweep"
        % "/".join(str(s) for s in scales),
        "",
    ] + rows + [
        "",
        "  WPA peak grew x%.2f across x%.1f routine growth "
        "(normalized %.2f; 0 = perfectly body-count-independent)"
        % (flatness, routine_growth, normalized_growth),
    ]
    payload = {
        "quick": bool(quick),
        "scales": list(scales),
        "sweep": sweep,
        "peak_flatness": flatness,
        "routine_growth": routine_growth,
        "normalized_peak_growth": normalized_growth,
    }
    return "\n".join(lines), payload


def check(payload):
    """Machine-independent regression guard; returns (baseline,
    failures)."""
    with open(BASELINE_PATH) as handle:
        baseline = json.load(handle)
    failures = []
    if payload["normalized_peak_growth"] > baseline["max_peak_growth"]:
        failures.append(
            "WPA peak grew x%.2f across x%.1f routine growth "
            "(normalized %.2f > committed ceiling %.2f): peak is no "
            "longer body-count-independent"
            % (payload["peak_flatness"],
               payload["routine_growth"],
               payload["normalized_peak_growth"],
               baseline["max_peak_growth"])
        )
    return baseline, failures


def test_thin_wpa_bench():
    text, payload = run_bench(quick=True)
    print()
    print(text)
    assert not check(payload)[1]
    save_result("thin_wpa_quick", text)
    save_json("thin_wpa", payload)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="4/8/16 modules instead of 7/14/28")
    parser.add_argument("--check", action="store_true",
                        help="fail on regression vs the committed "
                        "flatness ceiling")
    args = parser.parse_args(argv)
    text, payload = run_bench(quick=args.quick)
    print(text)
    save_result("thin_wpa", text)
    save_json("thin_wpa", payload)
    if args.check:
        baseline, failures = check(payload)
        if failures:
            for failure in failures:
                print("REGRESSION: %s" % failure, file=sys.stderr)
            return 1
        print("check: ok (normalized peak growth %.2f <= %.2f)"
              % (payload["normalized_peak_growth"],
                 baseline["max_peak_growth"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
