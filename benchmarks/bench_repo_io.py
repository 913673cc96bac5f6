"""Repository I/O: pack-file segments vs the legacy per-file layout.

Runs the Figure 5 offload workload (gcc-like app, NAIM pinned to
OFFLOAD with a small pool cache, so the build is dominated by
repository traffic) twice: once on the legacy one-file-per-pool layout
with synchronous fetches, once on the pack-segment layout with
compression and the background prefetch pipeline.  Reports wall-clock,
bytes written/read, and fetch/store counts, and asserts:

* output images are byte-identical across the two layouts (always --
  the repository is a cache of relocatable bytes, never a semantic
  input);
* in full mode, packed+compressed writes at least halve ``bytes_written``
  and the offload-phase wall-clock improves by >= 30%;
* the batched IL codec decodes the workload's routine pools at least
  2x faster than the reference per-field codec, from byte-identical
  relocatable images (full mode; always reported).

Run standalone (``python benchmarks/bench_repo_io.py [--smoke|--quick]``)
or via ``pytest benchmarks/bench_repo_io.py -s``.
"""

import argparse
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import save_json, save_result

from repro.bench.figures import _aggressive_hlo
from repro.driver.compiler import Compiler, train
from repro.driver.options import CompilerOptions
from repro.frontend import compile_source, detect_language
from repro.ir.symbols import ProgramSymbolTable
from repro.linker.objects import encode_executable
from repro.naim.compaction import (
    compact_routine,
    compact_routine_reference,
    uncompact_routine,
    uncompact_routine_reference,
)
from repro.naim.config import NaimConfig, NaimLevel
from repro.naim.intern import InternPool
from repro.synth.config import spec_like_suite
from repro.synth.generator import generate

#: Full-mode acceptance bars (ISSUE 5): pack must at least halve the
#: bytes hitting disk and cut >= 30% of the offload build's wall time.
MIN_WRITE_REDUCTION = 2.0
MIN_TIME_IMPROVEMENT = 0.30
#: Full-mode acceptance bar (ISSUE 7): batched decode vs reference.
MIN_DECODE_SPEEDUP = 2.0


def _workload(scale):
    config = next(c for c in spec_like_suite() if c.name == "gcc_like")
    if scale != 1.0:
        config = config.scaled(scale)
    app = generate(config)
    profile_db = train(app.sources, [app.make_input(seed=1)])
    return app, profile_db


def _run_build(app, profile_db, cache_pools, layout, prefetch_depth,
               compress_level):
    naim = NaimConfig(
        level=NaimLevel.OFFLOAD,
        cache_pools=cache_pools,
        repo_layout=layout,
        repo_prefetch_depth=prefetch_depth,
        repo_compress_level=compress_level,
    )
    repo_dir = tempfile.mkdtemp(prefix="repo_io_%s_" % layout)
    try:
        options = CompilerOptions(
            opt_level=4, pbo=True, naim=naim, hlo=_aggressive_hlo(),
            repository_dir=repo_dir,
        )
        start = time.perf_counter()
        build = Compiler(options).build(app.sources, profile_db=profile_db)
        seconds = time.perf_counter() - start
        repo = build.hlo_result.loader.repository
        stats = repo.io_stats()
        loader_stats = build.hlo_result.loader.stats
        phase_seconds = build.hlo_result.phase_seconds
        return {
            "layout": layout,
            "seconds": seconds,
            "hlo_seconds": build.timings.phases.get("hlo", 0.0),
            "wpa_seconds": sum(
                value for key, value in phase_seconds.items()
                if key.startswith("wpa")
            ),
            "scalar_seconds": phase_seconds.get("scalar", 0.0),
            "wpa_peak_bytes": build.hlo_result.wpa_peak_bytes,
            "coordinator_peak_bytes": build.hlo_result.peak_bytes,
            "image": encode_executable(build.executable),
            "stores": stats["stores"],
            "store_skips": stats.get("store_skips", 0),
            "fetches": stats["fetches"],
            "bytes_written": stats["bytes_written"],
            "bytes_read": stats["bytes_read"],
            "index_bytes_written": stats["index_bytes_written"],
            "segments": stats["segments"],
            "prefetches": loader_stats.prefetches,
            "prefetch_hits": loader_stats.prefetch_hits,
        }
    finally:
        shutil.rmtree(repo_dir, ignore_errors=True)


def _codec_bench(app, repeats=3):
    """Decode-side codec comparison on the workload's real IL.

    Compacts every routine of the workload once (asserting the batched
    and reference encoders produce identical bytes), then times
    decoding the whole relocatable set with the reference per-field
    codec vs the batched codec (eager, interned) -- the exact work a
    pool touch pays after a repository fetch.  Best-of-N wall times.
    """
    symtab = ProgramSymbolTable()
    routines = []
    for name, text in app.sources.items():
        module = compile_source(text, name, detect_language(text))
        routines.extend(module.routines.values())
    blobs = []
    for routine in routines:
        blob = compact_routine(routine, symtab)
        assert blob == compact_routine_reference(routine, symtab), (
            "batched and reference encoders diverged on %s" % routine.name
        )
        blobs.append(blob)

    def best_of(fn):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    def decode_reference():
        for blob in blobs:
            uncompact_routine_reference(blob, symtab)

    intern = InternPool()

    def decode_batched():
        for blob in blobs:
            uncompact_routine(blob, symtab, intern=intern)

    reference_secs = best_of(decode_reference)
    batched_secs = best_of(decode_batched)
    return {
        "routines": len(routines),
        "relocatable_bytes": sum(len(blob) for blob in blobs),
        "decode_reference_seconds": reference_secs,
        "decode_batched_seconds": batched_secs,
        "decode_speedup": (reference_secs / batched_secs
                           if batched_secs else float("inf")),
    }


def run_bench(mode="full"):
    scale = {"smoke": 0.5, "quick": 1.0}.get(mode, 2.0)
    cache_pools = 2 if mode == "smoke" else 4
    app, profile_db = _workload(scale)

    legacy = _run_build(app, profile_db, cache_pools, "files",
                        prefetch_depth=0, compress_level=0)
    packed = _run_build(app, profile_db, cache_pools, "pack",
                        prefetch_depth=1, compress_level=6)

    assert packed["image"] == legacy["image"], (
        "pack layout changed output bytes"
    )
    assert packed["stores"] > 0 and packed["fetches"] > 0, (
        "workload did not exercise the repository"
    )

    write_reduction = (legacy["bytes_written"] / packed["bytes_written"]
                       if packed["bytes_written"] else float("inf"))
    time_improvement = (
        (legacy["seconds"] - packed["seconds"]) / legacy["seconds"]
        if legacy["seconds"] else 0.0
    )
    codec = _codec_bench(app)
    if mode == "full":
        assert write_reduction >= MIN_WRITE_REDUCTION, (
            "pack writes %.2fx less than per-file (need >= %.1fx)"
            % (write_reduction, MIN_WRITE_REDUCTION)
        )
        assert time_improvement >= MIN_TIME_IMPROVEMENT, (
            "pack saves %.0f%% wall-clock (need >= %.0f%%)"
            % (100 * time_improvement, 100 * MIN_TIME_IMPROVEMENT)
        )
        assert codec["decode_speedup"] >= MIN_DECODE_SPEEDUP, (
            "batched decode is %.2fx the reference codec "
            "(need >= %.1fx)"
            % (codec["decode_speedup"], MIN_DECODE_SPEEDUP)
        )

    def row(label, r):
        return ("  %-22s %8.3fs %12d B written %12d B read "
                "%6d stores %6d fetches"
                % (label, r["seconds"], r["bytes_written"],
                   r["bytes_read"], r["stores"], r["fetches"]))

    lines = [
        "repository I/O bench (%s): gcc-like x%.1f, OFFLOAD, "
        "cache_pools=%d" % (mode, scale, cache_pools),
        "",
        row("per-file (legacy)", legacy),
        row("pack+zlib+prefetch", packed),
        "",
        "  bytes_written reduction: %.2fx" % write_reduction,
        "  wall-clock improvement:  %.1f%%" % (100 * time_improvement),
        "  pack segments: %d, index bytes written: %d, "
        "identical re-stores skipped: %d"
        % (packed["segments"], packed["index_bytes_written"],
           packed["store_skips"]),
        "  prefetches issued/hit: %d/%d"
        % (packed["prefetches"], packed["prefetch_hits"]),
        "  images byte-identical across layouts: yes",
        "  codec decode (%d routines, %d B relocatable): "
        "reference %.3fs vs batched %.3fs -> %.2fx"
        % (codec["routines"], codec["relocatable_bytes"],
           codec["decode_reference_seconds"],
           codec["decode_batched_seconds"], codec["decode_speedup"]),
    ]

    payload = {
        "mode": mode,
        "scale": scale,
        "cache_pools": cache_pools,
        "byte_identical": True,
        "write_reduction": write_reduction,
        "time_improvement": time_improvement,
        "legacy": {k: v for k, v in legacy.items() if k != "image"},
        "pack": {k: v for k, v in packed.items() if k != "image"},
        "codec": codec,
    }
    return "\n".join(lines), payload


def test_repo_io_smoke():
    text, payload = run_bench(mode="smoke")
    print()
    print(text)
    save_result("repo_io_smoke", text)
    save_json("repo_io", payload)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small workload, identity assert only")
    parser.add_argument("--quick", action="store_true",
                        help="medium workload, identity assert only")
    args = parser.parse_args(argv)
    mode = "smoke" if args.smoke else ("quick" if args.quick else "full")
    text, payload = run_bench(mode=mode)
    print(text)
    save_result("repo_io", text)
    save_json("repo_io", payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
