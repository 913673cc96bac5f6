"""Repository I/O: the pack-file repository under offload pressure.

Runs the Figure 5 offload workload (gcc-like app, NAIM pinned to
OFFLOAD with a small pool cache, so the build is dominated by
repository traffic) on an on-disk pack repository with compression and
the background prefetch pipeline, and once more on an in-memory
repository.  Reports wall-clock, bytes written/read, and fetch/store
counts, and asserts:

* the on-disk build's image is byte-identical to the in-memory build's
  (always -- the repository is a cache of relocatable bytes, never a
  semantic input);
* the workload exercised the repository: stores, fetches and clean
  evictions are all non-zero;
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
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests", "naim"))

from conftest import save_json, save_result
from reference_codec import (
    compact_routine_reference,
    uncompact_routine_reference,
)

from repro.bench.figures import _aggressive_hlo
from repro.driver.compiler import Compiler, train
from repro.driver.options import CompilerOptions
from repro.frontend import compile_source, detect_language
from repro.ir.symbols import ProgramSymbolTable
from repro.linker.objects import encode_executable
from repro.naim.compaction import compact_routine, uncompact_routine
from repro.naim.config import NaimConfig, NaimLevel
from repro.naim.intern import InternPool
from repro.synth.config import spec_like_suite
from repro.synth.generator import generate

#: Full-mode acceptance bar (ISSUE 7): batched decode vs reference.
MIN_DECODE_SPEEDUP = 2.0


def _workload(scale):
    config = next(c for c in spec_like_suite() if c.name == "gcc_like")
    if scale != 1.0:
        config = config.scaled(scale)
    app = generate(config)
    profile_db = train(app.sources, [app.make_input(seed=1)])
    return app, profile_db


def _run_build(app, profile_db, cache_pools, on_disk):
    naim = NaimConfig(level=NaimLevel.OFFLOAD, cache_pools=cache_pools)
    repo_dir = tempfile.mkdtemp(prefix="repo_io_") if on_disk else None
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
            "repository": "pack" if on_disk else "in-memory",
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
            "clean_evictions": loader_stats.clean_evictions,
        }
    finally:
        if repo_dir is not None:
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

    memory = _run_build(app, profile_db, cache_pools, on_disk=False)
    packed = _run_build(app, profile_db, cache_pools, on_disk=True)

    assert packed["image"] == memory["image"], (
        "the on-disk repository changed output bytes"
    )
    assert (packed["stores"] > 0 and packed["fetches"] > 0
            and packed["clean_evictions"] > 0), (
        "workload did not exercise the repository"
    )

    codec = _codec_bench(app)
    if mode == "full":
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
        row("in-memory", memory),
        row("pack+zlib+prefetch", packed),
        "",
        "  pack segments: %d, index bytes written: %d, "
        "clean evictions (no encode, no store): %d"
        % (packed["segments"], packed["index_bytes_written"],
           packed["clean_evictions"]),
        "  prefetches issued/hit: %d/%d"
        % (packed["prefetches"], packed["prefetch_hits"]),
        "  image byte-identical to the in-memory build: yes",
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
        "in_memory": {k: v for k, v in memory.items() if k != "image"},
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
