"""Build daemon: cold CLI processes vs one warm daemon.

Measures what the persistent compile service is for: amortizing
interpreter start-up, imports, and cache warm-up across requests.
Three scenarios over the same synthetic +O4 workload:

* **cold CLI** -- each build is a fresh ``python -m repro.driver
  build`` subprocess (pays start-up + cold caches every time);
* **warm daemon, serial** -- one daemon subprocess, requests sent
  one at a time over its socket;
* **warm daemon, concurrent** -- the same requests from several
  client threads at once, reported as requests/second.

Byte-identity between the daemon's images and the cold CLI's
``--emit-image`` output is asserted, not sampled, and the warm mean
latency must beat the cold mean -- the daemon earns its keep or the
bench fails.

Run standalone (``python benchmarks/bench_serve.py [--quick]``) or via
``pytest benchmarks/bench_serve.py -s``.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import save_json, save_result

from repro.serve.client import DaemonClient
from repro.synth import WorkloadConfig, generate

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def _make_app(quick):
    return generate(
        WorkloadConfig("servebench", n_modules=6 if quick else 12,
                       routines_per_module=5 if quick else 8,
                       n_features=3, dispatch_count=80, input_size=12,
                       seed=23, scale_note="build-daemon bench")
    )


def _write_sources(app, directory):
    paths = []
    for name, text in app.sources.items():
        path = os.path.join(directory, name + ".mll")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        paths.append(path)
    return paths


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _cold_cli_build(paths, image_path):
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro.driver", "build", *paths,
         "-O", "4", "--emit-image", image_path],
        check=True, env=_cli_env(), stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def _start_daemon(root, socket_path):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "run",
         "--root", root, "--socket", socket_path,
         "--max-sessions", "4", "--queue-depth", "8"],
        env=_cli_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    client = DaemonClient(socket_path)
    deadline = time.time() + 30
    while time.time() < deadline:
        if process.poll() is not None:
            raise RuntimeError("daemon died during startup")
        if client.available():
            return process
        time.sleep(0.05)
    process.terminate()
    raise RuntimeError("daemon did not come up in 30s")


def run_bench(quick=False):
    app = _make_app(quick)
    n_requests = 4 if quick else 8
    n_threads = 4
    workdir = tempfile.mkdtemp(prefix="bench-serve-")
    try:
        paths = _write_sources(app, workdir)
        options = {"sources": app.sources, "opt_level": 4}

        # Cold: one subprocess per build.
        image_path = os.path.join(workdir, "cold.bin")
        cold_times = [_cold_cli_build(paths, image_path)
                      for _ in range(n_requests)]
        with open(image_path, "rb") as handle:
            cold_image = handle.read()

        root = os.path.join(workdir, "droot")
        socket_path = os.path.join(workdir, "d.sock")
        daemon = _start_daemon(root, socket_path)
        try:
            client = DaemonClient(socket_path)
            # Warm, serial (first request warms the caches, then measure).
            first = client.build(options)
            assert first["image"] == cold_image, (
                "daemon image differs from cold CLI image"
            )
            warm_times = []
            for _ in range(n_requests):
                start = time.perf_counter()
                result = client.build(options)
                warm_times.append(time.perf_counter() - start)
                assert result["image"] == cold_image

            # Warm, concurrent: n_threads clients hammering at once.
            per_thread = max(1, n_requests // n_threads)
            failures = []

            def hammer():
                try:
                    for _ in range(per_thread):
                        out = client.build(options)
                        assert out["image"] == cold_image
                except Exception as exc:  # noqa: BLE001 - report below
                    failures.append(exc)

            threads = [threading.Thread(target=hammer)
                       for _ in range(n_threads)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - start
            if failures:
                raise failures[0]
            concurrent_rps = (n_threads * per_thread) / wall
        finally:
            daemon.terminate()
            daemon.wait(timeout=30)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    cold_mean = sum(cold_times) / len(cold_times)
    warm_mean = sum(warm_times) / len(warm_times)
    assert warm_mean < cold_mean, (
        "warm daemon build (%.3fs) not faster than cold CLI (%.3fs)"
        % (warm_mean, cold_mean)
    )

    lines = [
        "build daemon bench: %d modules, %d source lines (+O4)"
        % (len(app.sources), app.source_lines()),
        "",
        "  %-34s %8.3fs mean of %d" % (
            "cold CLI (subprocess per build)", cold_mean, n_requests),
        "  %-34s %8.3fs mean of %d  (x%.1f)" % (
            "warm daemon (serial requests)", warm_mean, n_requests,
            cold_mean / warm_mean if warm_mean else 0.0),
        "  %-34s %8.1f requests/s (%d threads)" % (
            "warm daemon (concurrent)", concurrent_rps, n_threads),
        "",
        "  images byte-identical to cold CLI: yes (every request)",
    ]
    payload = {
        "workload": {"modules": len(app.sources),
                     "source_lines": app.source_lines()},
        "requests": n_requests,
        "cold_cli_mean_seconds": cold_mean,
        "warm_serial_mean_seconds": warm_mean,
        "warm_speedup": cold_mean / warm_mean if warm_mean else 0.0,
        "concurrent_threads": n_threads,
        "concurrent_requests_per_second": concurrent_rps,
        "byte_identical": True,
    }
    return "\n".join(lines), payload


def test_serve_bench():
    text, payload = run_bench(quick=True)
    print()
    print(text)
    save_result("serve_quick", text)
    save_json("serve", payload)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload, fewer requests")
    args = parser.parse_args(argv)
    text, payload = run_bench(quick=args.quick)
    print(text)
    save_result("serve", text)
    print("wrote %s" % save_json("serve", payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
