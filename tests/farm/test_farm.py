"""Farm end-to-end: coordinator + workers in threads, real sockets.

The coordinator listens on an ephemeral TCP port and the workers dial
it exactly like separate hosts would -- authentication hello, store
connections, job loop -- so everything short of process isolation is
the production path.  The CI ``farm-smoke`` job covers the subprocess
+ signal half.
"""

import contextlib
import json
import threading
import time

import pytest

from repro.driver.build import BuildEngine
from repro.driver.compiler import Compiler
from repro.driver.options import CompilerOptions
from repro.farm.client import FarmClient, FarmError
from repro.farm.coordinator import FarmCoordinator
from repro.farm.protocol import ERR_BAD_REQUEST, read_message
from repro.farm.transport import ROLE_WORKER, connect
from repro.farm.worker import FarmWorker
from repro.linker.objects import encode_executable
from repro.part.procexec import processes_supported
from repro.sched.events import EventLog
from repro.synth import WorkloadConfig, generate

TOKEN = "farm-test-secret"


def farm_sources(seed=31):
    config = WorkloadConfig(
        "farm%d" % seed,
        n_modules=6,
        routines_per_module=3,
        n_features=2,
        dispatch_count=40,
        input_size=16,
        seed=seed,
    )
    return generate(config).sources


def cold_image(sources, hlo_jobs=1, incremental=False, state_dir=None):
    engine = BuildEngine(
        CompilerOptions(opt_level=4, hlo_jobs=hlo_jobs),
        incremental=incremental, state_dir=state_dir,
    )
    result, _ = engine.build(sources)
    engine.close()
    return encode_executable(result.executable)


def wait_for(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError("timed out waiting for %s" % message)


@contextlib.contextmanager
def running_farm(root, workers=2, worker_jobs=1, **kwargs):
    coordinator = FarmCoordinator(
        host="127.0.0.1", port=0, state_root=str(root), token=TOKEN,
        **kwargs
    )
    coordinator.bind()
    thread = threading.Thread(target=coordinator.serve_forever,
                              daemon=True)
    thread.start()
    fleet = []
    try:
        for index in range(workers):
            worker = FarmWorker(
                "127.0.0.1", coordinator.port, token=TOKEN,
                jobs=worker_jobs, label="w%d" % index,
                reconnect_delay=0.1,
            )
            worker.start()
            fleet.append(worker)
        expected = workers * worker_jobs
        wait_for(
            lambda: coordinator.task_queue.worker_count() == expected,
            message="%d worker slots to register" % expected,
        )
        yield coordinator, fleet
    finally:
        for worker in fleet:
            worker.stop()
        coordinator.request_shutdown()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "coordinator failed to drain"
        for worker in fleet:
            worker.join(timeout=10.0)


def farm_client(coordinator, token=TOKEN):
    return FarmClient(coordinator.endpoint, token=token)


@pytest.fixture(scope="module")
def farm(tmp_path_factory):
    """One shared two-worker farm for the read-mostly tests."""
    root = tmp_path_factory.mktemp("farm")
    with running_farm(root, workers=2) as pair:
        yield pair


class TestFarmByteIdentity:
    def test_farm_build_matches_cold_cli(self, farm):
        coordinator, _ = farm
        sources = farm_sources()
        batches_before = coordinator.dispatcher.batches
        result = farm_client(coordinator).build(
            {"sources": sources, "opt_level": 4, "hlo_jobs": 2}
        )
        assert result["image"] == cold_image(sources, hlo_jobs=2)
        assert coordinator.dispatcher.batches > batches_before

    def test_parallel_backend_and_incremental(self, farm, tmp_path):
        coordinator, _ = farm
        sources = farm_sources(seed=32)
        client = farm_client(coordinator)
        result = client.build({
            "sources": sources, "opt_level": 4, "hlo_jobs": 2,
            "state_dir": str(tmp_path / "warm"),
        })
        cold = cold_image(
            sources, hlo_jobs=2, incremental=True,
            state_dir=str(tmp_path / "cold"),
        )
        assert result["image"] == cold

    def test_rebuild_identical_and_store_deduplicates(self, farm):
        coordinator, _ = farm
        sources = farm_sources(seed=33)
        client = farm_client(coordinator)
        options = {"sources": sources, "opt_level": 4, "hlo_jobs": 2}
        first = client.build(options)
        entries_after_first = len(coordinator.store_repo)
        written_after_first = coordinator.store_repo.io_stats()[
            "bytes_written"]
        second = client.build(options)
        assert second["image"] == first["image"]
        # The farm's counted property: an identical rebuild republishes
        # the same context, pool and outcome blobs, the CAS already
        # holds every one, and nothing new is written.
        assert len(coordinator.store_repo) == entries_after_first
        assert (coordinator.store_repo.io_stats()["bytes_written"]
                == written_after_first)

    def test_work_lands_on_both_workers(self, farm):
        coordinator, fleet = farm
        client = farm_client(coordinator)
        for seed in (34, 35, 36):
            client.build({
                "sources": farm_sources(seed=seed),
                "opt_level": 4, "hlo_jobs": 2,
            })
        assert sum(worker.jobs_done for worker in fleet) >= 3


class TestTransportsAgree:
    """One runner, three transports: same image, same folded stats,
    and each transport's own span shape."""

    #: transport -> (compiler options, ``ltrans`` spans it records per
    #: partition: local executors one each, the coordinator none --
    #: farm workers keep their own clocks).
    SHAPES = {
        "in-process": (dict(hlo_jobs=1), 1),
        "processes": (dict(hlo_jobs=2, hlo_backend="processes"), 1),
        "farm": (dict(hlo_jobs=2), 0),
    }

    @pytest.mark.parametrize("transport", sorted(SHAPES))
    def test_image_stats_and_spans(self, farm, transport):
        if transport == "processes" and not processes_supported():
            pytest.skip("no multiprocessing here")
        coordinator, _ = farm
        sources = farm_sources(seed=38)
        serial = Compiler(CompilerOptions(opt_level=4)).build(sources)
        shape, spans_per_partition = self.SHAPES[transport]
        compiler = Compiler(
            CompilerOptions(opt_level=4, hlo_partitions=4, **shape)
        )
        if transport == "farm":
            compiler.partition_dispatcher = coordinator.dispatcher
        log = EventLog()
        build = compiler.build(sources, events=log)

        assert build.ltrans_stats["backend"] == transport
        assert build.ltrans_stats["partitions"] == 4
        assert (encode_executable(build.executable)
                == encode_executable(serial.executable))
        assert (build.hlo_result.ctx.stats.counts
                == serial.hlo_result.ctx.stats.counts)
        assert repr(build.llo_stats) == repr(serial.llo_stats)
        assert len(log.spans("ltrans")) == 4 * spans_per_partition
        assert len(log.spans("dispatch")) == 1


class TestBadOptions:
    # With workers attached the request parser is the same; the full
    # matrix is tests/serve/test_daemon.py::test_bad_build_options_rejected.
    @pytest.mark.parametrize("option, value", [
        ("wpa_mode", "materialize"),  # unknown key (stale client)
        ("checked", "no"),  # wrong type for a known key
        ("jobs", 2),  # removed with the compile-task thread pool
    ])
    def test_bad_build_option_refused_by_name(self, farm, option, value):
        coordinator, _ = farm
        with pytest.raises(FarmError, match="'%s'" % option) as excinfo:
            farm_client(coordinator).build({
                "sources": farm_sources(), "opt_level": 4, option: value,
            })
        assert excinfo.value.code == ERR_BAD_REQUEST


class TestZeroWorkers:
    def test_build_falls_back_to_local_partitions(self, tmp_path):
        sources = farm_sources(seed=37)
        with running_farm(tmp_path, workers=0) as (coordinator, _):
            result = farm_client(coordinator).build(
                {"sources": sources, "opt_level": 4, "hlo_jobs": 2}
            )
            assert coordinator.dispatcher.batches == 0
        assert result["image"] == cold_image(sources, hlo_jobs=2)


class TestAuth:
    def test_bad_token_refused_and_counted(self, farm):
        coordinator, _ = farm
        failures_before = coordinator.auth_failures
        client = farm_client(coordinator, token="wrong-secret")
        with pytest.raises(FarmError, match="refused"):
            client.build({"sources": {"m": "func main() { return 1; }"},
                          "opt_level": 0})
        # The refusal answer is written before the counter bumps.
        wait_for(
            lambda: coordinator.auth_failures > failures_before,
            message="auth failure to be counted",
        )

    def test_available_reflects_liveness(self, farm):
        coordinator, _ = farm
        assert farm_client(coordinator).available()
        assert not FarmClient("127.0.0.1:1", token=TOKEN).available()


class TestWorkerFailure:
    def test_worker_death_mid_partition_requeues_and_recovers(
            self, tmp_path):
        """A worker that dies holding a partition costs a retry, not
        the build: the coordinator re-queues its in-flight task and a
        healthy worker picks it up."""
        sources = farm_sources(seed=38)
        with running_farm(tmp_path, workers=0) as (coordinator, _):
            # A saboteur "worker": takes the first job, then drops the
            # connection without replying.
            def saboteur():
                conn, stream = connect(
                    "127.0.0.1", coordinator.port, ROLE_WORKER, TOKEN,
                    timeout=5.0, label="saboteur",
                )
                conn.settimeout(None)
                try:
                    while True:
                        message = read_message(stream)
                        if message is None or message.get("op") == "run":
                            return
                finally:
                    conn.close()

            thread = threading.Thread(target=saboteur, daemon=True)
            thread.start()
            wait_for(
                lambda: coordinator.task_queue.worker_count() == 1,
                message="saboteur to register",
            )

            outcome = {}

            def build():
                try:
                    outcome["result"] = farm_client(coordinator).build({
                        "sources": sources, "opt_level": 4,
                        "hlo_jobs": 2,
                    })
                except FarmError as exc:  # pragma: no cover
                    outcome["error"] = exc

            builder = threading.Thread(target=build, daemon=True)
            builder.start()
            thread.join(timeout=30.0)  # saboteur got a job and died
            assert not thread.is_alive()

            # Now bring up an honest worker to rescue the partitions.
            rescue = FarmWorker(
                "127.0.0.1", coordinator.port, token=TOKEN,
                label="rescue", reconnect_delay=0.1,
            )
            rescue.start()
            try:
                builder.join(timeout=60.0)
                assert not builder.is_alive(), "build never finished"
            finally:
                rescue.stop()
                rescue.join(timeout=10.0)
            assert "error" not in outcome, outcome.get("error")
            assert coordinator.task_queue.requeues >= 1
            assert rescue.jobs_done >= 1
        assert outcome["result"]["image"] == cold_image(
            sources, hlo_jobs=2
        )

    def test_retries_exhausted_fails_the_build_not_the_daemon(
            self, tmp_path):
        sources = farm_sources(seed=39)
        with running_farm(tmp_path, workers=1,
                          retry_limit=0) as (coordinator, fleet):
            # Make every job fail on the worker by poisoning execution.
            fleet[0]._run_job = lambda message, store: {
                "ok": False,
                "task": message.get("task"),
                "error": "poisoned",
            }
            client = farm_client(coordinator)
            with pytest.raises(FarmError, match="poisoned"):
                client.build({"sources": sources, "opt_level": 4,
                              "hlo_jobs": 2})
            # The coordinator survived the failed build.
            assert client.available()


class TestStatus:
    def test_status_reports_farm_shape(self, farm):
        coordinator, _ = farm
        status = farm_client(coordinator).status()
        assert status["endpoint"] == coordinator.endpoint
        assert len(status["workers"]) == 2
        for info in status["workers"]:
            assert info["id"] and info["label"]
        assert status["queue"]["workers"] == 2
        assert "requeues" in status["queue"]
        assert status["store"]["entries"] >= 0
        assert status["dispatch"]["batches"] >= 0
        assert json.dumps(status)  # wire-serializable
