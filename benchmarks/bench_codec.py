"""Codec micro-benchmark with a committed, machine-independent baseline.

CI boxes differ wildly in absolute speed, so the regression guard is a
*ratio*: how long the batched codec takes relative to the reference
per-field codec on the same fixed-seed workload, measured in the same
process.  The reference codec acts as the machine-speed normalizer --
if the batched decoder regresses (someone un-batches a loop, adds a
per-instruction allocation), the ratio moves even though every
absolute number shifted with the hardware.

``--check`` (the CI ``perf-smoke`` job) fails when a ratio exceeds
the committed baseline by more than ``SLOWDOWN_TOLERANCE`` (generous:
1.5x), and always asserts two byte-identities on the deterministic
reference image (every routine of the fixed-seed program, compacted
in module order):

* batched and reference encoders produce the same bytes;
* those bytes hash to the SHA-256 recorded in the baseline -- the
  on-disk format is frozen, so *any* drift is a hard failure.

``--update-baseline`` rewrites ``baselines/codec_baseline.json``
(do this only alongside a deliberate, reviewed format or perf change).

Run standalone: ``python benchmarks/bench_codec.py [--check]``.
"""

import argparse
import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests", "naim"))

from conftest import save_json, save_result
from reference_codec import (
    compact_routine_reference,
    uncompact_routine_reference,
)

from repro.frontend import compile_sources
from repro.naim.compaction import compact_routine, uncompact_routine
from repro.naim.intern import InternPool
from repro.synth import WorkloadConfig, generate

BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "baselines", "codec_baseline.json",
)

#: A checked ratio may exceed its baseline by this factor before the
#: guard fires.  Generous on purpose: CI noise on shared runners is
#: real, and the regressions worth catching (un-batching a loop) are
#: 2x+, not 10%.
SLOWDOWN_TOLERANCE = 1.5

#: Timing repetitions; best-of to shed scheduler noise.
REPEATS = 5


def _workload():
    app = generate(
        WorkloadConfig("codecbench", n_modules=10, routines_per_module=6,
                       n_features=4, dispatch_count=120, seed=13,
                       scale_note="codec perf-smoke workload")
    )
    return compile_sources(app.sources)


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure():
    program = _workload()
    symtab = program.symtab
    routines = program.all_routines()

    blobs = []
    for routine in routines:
        blob = compact_routine(routine, symtab)
        reference_blob = compact_routine_reference(routine, symtab)
        assert blob == reference_blob, (
            "batched and reference encoders diverged on %s" % routine.name
        )
        blobs.append(blob)
    image = b"".join(blobs)
    image_sha = hashlib.sha256(image).hexdigest()

    encode_reference = _best_of(
        lambda: [compact_routine_reference(r, symtab) for r in routines]
    )
    encode_batched = _best_of(
        lambda: [compact_routine(r, symtab) for r in routines]
    )
    decode_reference = _best_of(
        lambda: [uncompact_routine_reference(b, symtab) for b in blobs]
    )
    intern = InternPool()
    decode_batched = _best_of(
        lambda: [uncompact_routine(b, symtab, intern=intern) for b in blobs]
    )

    return {
        "routines": len(routines),
        "relocatable_bytes": len(image),
        "image_sha256": image_sha,
        "encode_reference_seconds": encode_reference,
        "encode_batched_seconds": encode_batched,
        "decode_reference_seconds": decode_reference,
        "decode_batched_seconds": decode_batched,
        # The machine-independent regression signals: batched time as
        # a fraction of reference time (lower is better, < 1 required
        # for the optimization to be worth having).
        "encode_ratio": encode_batched / encode_reference,
        "decode_ratio": decode_batched / decode_reference,
    }


def _render(result, baseline=None):
    lines = [
        "codec bench: %d routines, %d relocatable bytes"
        % (result["routines"], result["relocatable_bytes"]),
        "  encode: reference %.4fs, batched %.4fs (ratio %.3f)"
        % (result["encode_reference_seconds"],
           result["encode_batched_seconds"], result["encode_ratio"]),
        "  decode: reference %.4fs, batched %.4fs (ratio %.3f)"
        % (result["decode_reference_seconds"],
           result["decode_batched_seconds"], result["decode_ratio"]),
        "  image sha256: %s" % result["image_sha256"],
    ]
    if baseline is not None:
        lines.append(
            "  baseline ratios: encode %.3f, decode %.3f (tolerance %.1fx)"
            % (baseline["encode_ratio"], baseline["decode_ratio"],
               SLOWDOWN_TOLERANCE)
        )
    return "\n".join(lines)


def check(result):
    with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    failures = []
    if result["image_sha256"] != baseline["image_sha256"]:
        failures.append(
            "reference image drifted: sha256 %s != committed %s -- the "
            "on-disk format must not change"
            % (result["image_sha256"], baseline["image_sha256"])
        )
    for name in ("encode_ratio", "decode_ratio"):
        limit = baseline[name] * SLOWDOWN_TOLERANCE
        if result[name] > limit:
            failures.append(
                "%s %.3f exceeds baseline %.3f x %.1f = %.3f"
                % (name, result[name], baseline[name],
                   SLOWDOWN_TOLERANCE, limit)
            )
    return baseline, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="fail on regression vs the committed baseline")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the committed baseline from this run")
    args = parser.parse_args(argv)

    result = measure()
    baseline = None
    failures = []
    if args.check:
        baseline, failures = check(result)
    text = _render(result, baseline)
    print(text)
    save_result("codec", text)
    save_json("codec", {**result, "failures": failures})

    if args.update_baseline:
        os.makedirs(os.path.dirname(BASELINE_PATH), exist_ok=True)
        with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "image_sha256": result["image_sha256"],
                    "encode_ratio": round(result["encode_ratio"], 3),
                    "decode_ratio": round(result["decode_ratio"], 3),
                },
                handle, indent=2, sort_keys=True,
            )
            handle.write("\n")
        print("baseline -> %s" % BASELINE_PATH)

    if failures:
        for failure in failures:
            print("FAIL: %s" % failure, file=sys.stderr)
        return 1
    if args.check:
        print("perf-smoke: ratios within %.1fx of baseline, image "
              "byte-identical" % SLOWDOWN_TOLERANCE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
