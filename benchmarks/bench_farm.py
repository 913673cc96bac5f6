"""Build server: cold CLI vs a coordinator with 0, 2 and 4 workers.

Measures what keeping compile state warm, and distributing the LTRANS
phase, buy under client pressure.  Four throughput scenarios over the
same synthetic +O4 ``--hlo-jobs 2`` workload, each hammered by >= 12
concurrent clients:

* **cold CLI** -- a fresh ``python -m repro.driver build`` subprocess
  per build (baseline; start-up + cold caches every time);
* **farm, 0 workers** -- one ``python -m repro.farm coordinator`` with
  no workers attached: warm sessions, partitions in its own process
  pool;
* **farm, 2 workers** / **farm, 4 workers** -- the same coordinator
  with worker daemons executing the partitions, all separate
  processes.

Every image from every scenario is asserted byte-identical to the
cold CLI's ``--emit-image`` output -- distribution must never change
the bits -- and the zero-worker coordinator's mean serial build
latency must beat the cold CLI's: warm sessions earn their keep or the
bench fails.  A final recovery scenario SIGKILLs a worker that holds an
in-flight partition and requires the build to finish anyway through
the coordinator's re-queue (visible as ``queue.requeues`` in status).

Run standalone (``python benchmarks/bench_farm.py [--quick]``) or via
``pytest benchmarks/bench_farm.py -s``.
"""

import argparse
import contextlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import save_json, save_result

from repro.farm.client import FarmClient
from repro.synth import WorkloadConfig, generate

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

TOKEN = "bench-farm-secret"
N_CLIENTS = 12


def _make_app(quick):
    return generate(
        WorkloadConfig("farmbench", n_modules=6 if quick else 12,
                       routines_per_module=4 if quick else 8,
                       n_features=3, dispatch_count=80, input_size=12,
                       seed=29, scale_note="compile-farm bench")
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
         "-O", "4", "--hlo-jobs", "2",
         "--emit-image", image_path],
        check=True, env=_cli_env(), stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def _wait_available(client, process, what, timeout=30.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if process.poll() is not None:
            raise RuntimeError("%s died during startup" % what)
        if client.available():
            return
        time.sleep(0.05)
    process.terminate()
    raise RuntimeError("%s did not come up in %.0fs" % (what, timeout))


def _start_coordinator(root):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.farm", "coordinator",
         "--host", "127.0.0.1", "--port", "0", "--root", root,
         "--token", TOKEN, "--max-sessions", "4",
         "--queue-depth", "16"],
        env=_cli_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    port_file = os.path.join(root, "coordinator.port")
    deadline = time.time() + 30
    endpoint = None
    while time.time() < deadline and endpoint is None:
        if process.poll() is not None:
            raise RuntimeError("coordinator died during startup")
        try:
            with open(port_file, "r", encoding="utf-8") as handle:
                endpoint = handle.read().strip() or None
        except OSError:
            time.sleep(0.05)
    if endpoint is None:
        process.terminate()
        raise RuntimeError("coordinator wrote no port file in 30s")
    _wait_available(FarmClient(endpoint, token=TOKEN), process,
                    "coordinator")
    return process, endpoint


def _start_worker(endpoint, label):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.farm", "worker",
         "--connect", endpoint, "--token", TOKEN,
         "--label", label, "--reconnect-delay", "0.2"],
        env=_cli_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _stop(process):
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)


def _wait_worker_slots(endpoint, expected, timeout=30.0):
    client = FarmClient(endpoint, token=TOKEN)
    deadline = time.time() + timeout
    while time.time() < deadline:
        if len(client.status().get("workers", [])) >= expected:
            return
        time.sleep(0.1)
    raise RuntimeError("%d worker slot(s) never registered" % expected)


def _hammer(make_client, options, reference, builds_per_client):
    """N_CLIENTS threads, each its own client; returns requests/s."""
    failures = []

    def client_main():
        try:
            client = make_client()
            for _ in range(builds_per_client):
                result = client.build(options, timeout=600.0)
                assert result["image"] == reference, (
                    "image differs from cold CLI reference"
                )
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    threads = [threading.Thread(target=client_main)
               for _ in range(N_CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if failures:
        raise failures[0]
    return (N_CLIENTS * builds_per_client) / wall


@contextlib.contextmanager
def _farm(workdir, tag, n_workers):
    root = os.path.join(workdir, "farm-%s" % tag)
    coordinator, endpoint = _start_coordinator(root)
    workers = []
    try:
        for index in range(n_workers):
            workers.append(
                _start_worker(endpoint, "%s-w%d" % (tag, index))
            )
        _wait_worker_slots(endpoint, n_workers)
        yield endpoint
    finally:
        for worker in workers:
            _stop(worker)
        _stop(coordinator)


def _farm_rps(workdir, tag, n_workers, options, reference,
              builds_per_client):
    with _farm(workdir, tag, n_workers) as endpoint:
        rps = _hammer(
            lambda: FarmClient(endpoint, token=TOKEN),
            options, reference, builds_per_client,
        )
        status = FarmClient(endpoint, token=TOKEN).status()
        assert status["dispatch"]["jobs"] > 0, (
            "farm served builds without dispatching any partitions"
        )
    return rps


def _recovery_scenario(workdir, options, reference):
    """SIGKILL a worker holding a partition; the build must finish."""
    with _farm(workdir, "recover", 1) as endpoint:
        victim_holds_job = threading.Event()
        outcome = {}

        def build():
            try:
                outcome["result"] = FarmClient(
                    endpoint, token=TOKEN
                ).build(options, timeout=600.0)
            except Exception as exc:  # noqa: BLE001 - checked below
                outcome["error"] = exc

        builder = threading.Thread(target=build)
        builder.start()
        # With exactly one worker, inflight >= 1 means *it* holds a
        # partition right now.
        client = FarmClient(endpoint, token=TOKEN)
        deadline = time.time() + 120
        while time.time() < deadline:
            if client.status()["queue"]["inflight"] >= 1:
                victim_holds_job.set()
                break
            time.sleep(0.01)
        assert victim_holds_job.is_set(), (
            "no partition ever went in flight"
        )
        # This is the worker subprocess the context manager started.
        status = client.status()
        victim_pid = status["workers"][0]["pid"]
        os.kill(victim_pid, signal.SIGKILL)
        rescue = _start_worker(endpoint, "rescue")
        try:
            builder.join(timeout=300)
            assert not builder.is_alive(), "build never finished"
            assert "error" not in outcome, outcome.get("error")
            assert outcome["result"]["image"] == reference
            requeues = client.status()["queue"]["requeues"]
            assert requeues >= 1, (
                "killed worker's partition was not re-queued"
            )
        finally:
            _stop(rescue)
        return requeues


def run_bench(quick=False):
    app = _make_app(quick)
    builds_per_client = 1 if quick else 2
    n_cold = 2 if quick else 4
    workdir = tempfile.mkdtemp(prefix="bench-farm-")
    try:
        paths = _write_sources(app, workdir)
        options = {"sources": app.sources, "opt_level": 4, "hlo_jobs": 2}

        # Cold CLI: the reference image and the baseline latency.
        image_path = os.path.join(workdir, "cold.bin")
        cold_times = [_cold_cli_build(paths, image_path)
                      for _ in range(n_cold)]
        with open(image_path, "rb") as handle:
            reference = handle.read()
        cold_mean = sum(cold_times) / len(cold_times)
        cold_rps = 1.0 / cold_mean

        # Zero workers: the coordinator builds on its warm sessions.
        with _farm(workdir, "f0", 0) as endpoint:
            client = FarmClient(endpoint, token=TOKEN)
            assert client.build(options)["image"] == reference  # warm up
            warm_times = []
            for _ in range(n_cold):
                start = time.perf_counter()
                result = client.build(options)
                warm_times.append(time.perf_counter() - start)
                assert result["image"] == reference
            farm0_rps = _hammer(
                lambda: FarmClient(endpoint, token=TOKEN),
                options, reference, builds_per_client,
            )
        warm_mean = sum(warm_times) / len(warm_times)
        assert warm_mean < cold_mean, (
            "warm build on a 0-worker coordinator (%.3fs) not faster "
            "than the cold CLI (%.3fs)" % (warm_mean, cold_mean)
        )

        farm2_rps = _farm_rps(workdir, "f2", 2, options, reference,
                              builds_per_client)
        farm4_rps = _farm_rps(workdir, "f4", 4, options, reference,
                              builds_per_client)
        requeues = _recovery_scenario(workdir, options, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    total_builds = N_CLIENTS * builds_per_client
    lines = [
        "compile farm bench: %d modules, %d source lines "
        "(+O4, --hlo-jobs 2; %d clients x %d build(s))"
        % (len(app.sources), app.source_lines(), N_CLIENTS,
           builds_per_client),
        "",
        "  %-30s %8.2f builds/s  (%.3fs mean of %d, serial)" % (
            "cold CLI", cold_rps, cold_mean, n_cold),
        "  %-30s %8.2f builds/s  (%d concurrent clients; "
        "%.3fs mean of %d, serial)" % (
            "farm, 0 workers", farm0_rps, N_CLIENTS, warm_mean, n_cold),
        "  %-30s %8.2f builds/s  (%d concurrent clients)" % (
            "farm, 2 workers", farm2_rps, N_CLIENTS),
        "  %-30s %8.2f builds/s  (%d concurrent clients)" % (
            "farm, 4 workers", farm4_rps, N_CLIENTS),
        "",
        "  images byte-identical to cold CLI: yes (all %d builds)"
        % (total_builds * 3 + n_cold + 2),
        "  SIGKILLed worker mid-partition: build finished after %d "
        "re-queue(s)" % requeues,
    ]
    payload = {
        "workload": {"modules": len(app.sources),
                     "source_lines": app.source_lines()},
        "concurrent_clients": N_CLIENTS,
        "builds_per_client": builds_per_client,
        "cold_cli_builds_per_second": cold_rps,
        "farm0_builds_per_second": farm0_rps,
        "farm0_serial_mean_seconds": warm_mean,
        "farm2_builds_per_second": farm2_rps,
        "farm4_builds_per_second": farm4_rps,
        "byte_identical": True,
        "worker_kill_requeues": requeues,
        "worker_kill_recovered": True,
    }
    return "\n".join(lines), payload


def test_farm_bench():
    text, payload = run_bench(quick=True)
    print()
    print(text)
    save_result("farm_quick", text)
    save_json("farm", payload)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload, fewer builds")
    args = parser.parse_args(argv)
    text, payload = run_bench(quick=args.quick)
    print(text)
    save_result("farm", text)
    print("wrote %s" % save_json("farm", payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
