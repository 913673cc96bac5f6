"""The warm build server end to end: a coordinator with zero workers.

Byte-identity, admission, disconnects, the control plane, the
process pool, lifecycle and recovery.  The coordinator runs in a
thread inside the test process on an ephemeral TCP port and is
reached through the one client, hello included, which keeps these
fast enough for tier 1; the CI ``farm-smoke`` job covers the real
subprocess + signal path.
"""

import contextlib
import os
import socket
import threading

import pytest

from repro.driver.compiler import CompileSession
from repro.driver.options import CompilerOptions
from repro.farm.client import FarmClient, FarmError
from repro.farm.coordinator import DaemonStartupError, FarmCoordinator
from repro.farm.protocol import (
    ERR_BAD_REQUEST,
    ERR_BUSY,
    ERR_DRAINING,
    ERR_LINE_TOO_LONG,
    ERR_TIMEOUT,
    OP_PING,
    make_request,
    read_message,
    write_message,
)
from repro.farm.transport import ROLE_CLIENT, connect
from repro.linker.objects import encode_executable

TOKEN = "warm-server-secret"


def coordinator_at(root, **kwargs):
    return FarmCoordinator(host="127.0.0.1", port=0, state_root=str(root),
                           token=TOKEN, **kwargs)


@contextlib.contextmanager
def running_server(root, **kwargs):
    """A zero-worker coordinator serving in a thread, and its client."""
    server = coordinator_at(root, **kwargs)
    server.bind()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, FarmClient(server.endpoint, token=TOKEN)
    finally:
        server.request_shutdown()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "coordinator failed to drain"


def raw_stream(server):
    """An authenticated client connection, for hand-written lines."""
    return connect("127.0.0.1", server.port, ROLE_CLIENT, TOKEN)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One shared warm coordinator for the read-mostly tests."""
    root = tmp_path_factory.mktemp("served")
    with running_server(root, max_sessions=2, queue_depth=2) as pair:
        yield pair


def cold_image(sources, incremental=False, state_dir=None):
    """The reference: an in-process build through the same session
    entry point the CLI uses."""
    session = CompileSession(
        CompilerOptions(opt_level=4),
        incremental=incremental, state_dir=state_dir,
    )
    result, _, _ = session.build(sources)
    session.close()
    return encode_executable(result.executable)


class TestByteIdentity:
    @pytest.mark.parametrize("builds", [1, 2])
    @pytest.mark.parametrize("incremental", [False, True])
    def test_warm_build_matches_cold_cli(self, served, tmp_path,
                                         calc_sources, builds, incremental):
        server, client = served
        options = {"sources": calc_sources, "opt_level": 4}
        if incremental:
            options["state_dir"] = str(tmp_path / "warm")
        # The last of ``builds`` requests: a repeat one is served from
        # the warm session (and its incremental state) left by the first.
        for _ in range(builds):
            warm = client.build(options)
        cold = cold_image(
            calc_sources, incremental=incremental,
            state_dir=str(tmp_path / "cold") if incremental else None,
        )
        assert warm["image"] == cold

    def test_repeat_build_stays_identical_and_warm(self, served,
                                                   calc_sources):
        _, client = served
        options = {"sources": calc_sources, "opt_level": 4}
        first = client.build(options)
        second = client.build(options)
        assert second["image"] == first["image"]
        assert second["stats"]["warm_builds_before"] >= 1
        assert second["summary"]["code_size"] == (
            first["summary"]["code_size"]
        )

    def test_stats_reported_per_request(self, served, calc_sources):
        _, client = served
        result = client.build({"sources": calc_sources, "opt_level": 4})
        stats = result["stats"]
        assert stats["seconds"] > 0
        assert "queue_wait_seconds" in stats
        assert "cache_hits" in stats and "phase_seconds" in stats


class TestConcurrency:
    def test_concurrent_builds_both_succeed(self, served, calc_sources):
        _, client = served
        results = [None, None]
        errors = []

        def build(slot):
            try:
                results[slot] = client.build(
                    {"sources": calc_sources, "opt_level": 4}
                )
            except FarmError as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=build, args=(i,))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        assert results[0]["image"] == results[1]["image"]

    def test_busy_rejection_past_queue(self, tmp_path, calc_sources):
        with running_server(tmp_path, max_sessions=1,
                            queue_depth=0) as (server, client):
            assert server.gate.try_acquire() is not None  # occupy
            try:
                with pytest.raises(FarmError) as excinfo:
                    client.build(
                        {"sources": calc_sources, "opt_level": 0}
                    )
                assert excinfo.value.code == ERR_BUSY
            finally:
                server.gate.release()

    def test_request_timeout_reported(self, tmp_path):
        from repro.synth import WorkloadConfig, generate

        # Heavy enough that it cannot finish inside the first
        # heartbeat tick; the timeout must fire instead.
        app = generate(WorkloadConfig(
            "slow", n_modules=12, routines_per_module=8, n_features=3,
            dispatch_count=60, input_size=12, seed=11,
        ))
        with running_server(
            tmp_path, request_timeout=0.001, heartbeat_seconds=0.001,
        ) as (server, client):
            with pytest.raises(FarmError) as excinfo:
                client.build({"sources": app.sources, "opt_level": 4})
            assert excinfo.value.code == ERR_TIMEOUT
            assert server.timeouts == 1


class TestDisconnect:
    def test_survives_client_vanishing_mid_build(self, tmp_path,
                                                 calc_sources):
        with running_server(
            tmp_path, max_sessions=1, queue_depth=1,
            heartbeat_seconds=0.02,
        ) as (server, client):
            conn, stream = raw_stream(server)
            write_message(stream, make_request(
                "build", {"sources": calc_sources, "opt_level": 4}
            ))
            assert read_message(stream)["event"] == "progress"
            conn.close()  # vanish mid-build
            # The server keeps serving: the abandoned build's slot is
            # released when its worker finishes, so this admits.
            result = client.build(
                {"sources": calc_sources, "opt_level": 4}
            )
            assert result["image"]


class TestControlPlane:
    def test_ping(self, served):
        _, client = served
        assert client.available()

    def test_status_shape(self, served, calc_sources):
        _, client = served
        client.build({"sources": calc_sources, "opt_level": 4})
        status = client.status()
        assert status["builds_served"] >= 1
        assert status["pid"] == os.getpid()
        assert status["draining"] is False
        assert status["admission"]["max_sessions"] == 2
        assert isinstance(status["sessions"], list)
        assert status["artifact_cache"]["entries"] >= 0

    @pytest.mark.parametrize("options, pattern", [
        ({}, "sources"),
        ({"sources": {}}, "empty"),
        ({"sources": {"m": "x"}, "hlo_jobs": 0}, "hlo_jobs"),
        ({"sources": {"m": "x"}, "opt_level": 9}, "opt"),
        # A stale client (the option or value was removed) and a typo:
        # named, never silently built with defaults.
        ({"sources": {"m": "x"}, "wpa_mode": "summary"}, "'wpa_mode'"),
        ({"sources": {"m": "x"}, "hlo_backend": "threads"}, "'threads'"),
        ({"sources": {"m": "x"}, "hlo_job": 4}, "'hlo_job'"),
        ({"sources": {"m": "x"}, "repo_compress": 0}, "'repo_compress'"),
        ({"sources": {"m": "x"}, "repo_segment_mb": 1},
         "'repo_segment_mb'"),
        ({"sources": {"m": "x"}, "prefetch_depth": 2}, "'prefetch_depth'"),
        # Every knob is strict about type: a truthy string is not a
        # boolean, a boolean or a float is not an integer, and a number
        # is not a path (it used to open that file descriptor).
        ({"sources": {"m": "x"}, "checked": "no"}, "'checked'"),
        ({"sources": {"m": "x"}, "incremental": "false"}, "'incremental'"),
        # A knob since removed: refused by name.
        ({"sources": {"m": "x"}, "profile_hot": "no"}, "'profile_hot'"),
        ({"sources": {"m": "x"}, "hlo_jobs": True}, "'hlo_jobs'"),
        ({"sources": {"m": "x"}, "opt_level": 4.0}, "'opt_level'"),
        ({"sources": {"m": "x"}, "selectivity": "x"}, "'selectivity'"),
        ({"sources": {"m": "x"}, "profile_path": 7}, "'profile_path'"),
        # Removed with the compile-task thread pool: a stale client.
        ({"sources": {"m": "x"}, "jobs": 2}, "'jobs'"),
    ])
    def test_bad_build_options_rejected(self, served, options, pattern):
        _, client = served
        with pytest.raises(FarmError) as excinfo:
            client.build(options)
        assert excinfo.value.code == ERR_BAD_REQUEST
        assert pattern in str(excinfo.value)

    def test_a_removed_option_is_refused_and_the_daemon_answers_on(
            self, served, calc_sources):
        # A client from before ``--profile-feed`` left: a structured
        # refusal naming the key, and the next request is served.
        _, client = served
        with pytest.raises(FarmError) as excinfo:
            client.build({"sources": calc_sources, "opt_level": 4,
                          "profile_feed": "app"})
        assert excinfo.value.code == ERR_BAD_REQUEST
        assert "'profile_feed'" in str(excinfo.value)
        assert client.request(OP_PING)["pong"] is True

    @pytest.mark.parametrize("op", ["train", "objdump"])
    def test_a_removed_op_is_refused_and_the_server_answers_on(
            self, served, op):
        # A client from when the server also trained and dumped IL:
        # those run in the client's own process now.
        _, client = served
        with pytest.raises(FarmError) as excinfo:
            client.request(op, {"sources": {"m": "func f(x) { return x; }"}})
        assert excinfo.value.code == ERR_BAD_REQUEST
        assert "unknown op" in str(excinfo.value)
        assert client.request(OP_PING)["pong"] is True

    def test_malformed_request_line_rejected(self, served):
        server, _ = served
        conn, stream = raw_stream(server)
        try:
            stream.write(b'{"v": 1, "id": "x", "op": "explode"}\n')
            stream.flush()
            answer = read_message(stream)
            assert answer["ok"] is False
            assert answer["error"]["code"] == ERR_BAD_REQUEST
        finally:
            conn.close()

    def test_oversized_request_answered_not_dropped(self, served,
                                                    monkeypatch):
        # A request past the line limit gets a structured LineTooLong
        # answer (previously: silent drop and a bare disconnect).
        server, _ = served
        # The hello has a fixed limit of its own; the request line after
        # it meets the protocol-wide one.
        monkeypatch.setattr("repro.farm.protocol.MAX_LINE_BYTES", 1024)
        conn, stream = raw_stream(server)
        try:
            stream.write(b'{"v": 1, "id": "big", "op": "ping", "pad": "'
                         + b"x" * 4096 + b'"}\n')
            stream.flush()
            answer = read_message(stream)
            assert answer["ok"] is False
            assert answer["error"]["code"] == ERR_LINE_TOO_LONG
            assert answer["error"]["limit"] == 1024
        finally:
            conn.close()


class TestProcessPool:
    """The server keeps ONE LTRANS worker-process pool across builds:
    warm parallel builds skip process spawn, stay byte-identical to
    the cold path, and the drain path tears the pool down."""

    def _options(self, sources):
        return {"sources": sources, "opt_level": 4, "hlo_jobs": 2,
                "partitions": 4, "hlo_backend": "processes"}

    def test_warm_builds_share_one_pool(self, tmp_path, calc_sources):
        with running_server(tmp_path) as (server, client):
            first = client.build(self._options(calc_sources))
            assert first["summary"]["hlo_backend"] == "processes"
            stats = client.status()["process_pool"]
            assert stats is not None and stats["tasks_done"] >= 1

            second = client.build(self._options(calc_sources))
            assert second["image"] == first["image"]
            warm = client.status()["process_pool"]
            # Same partitions again, zero fresh spawns.
            assert warm["tasks_done"] == 2 * stats["tasks_done"]
            assert warm["spawned"] == stats["spawned"]
            assert warm["crashes"] == 0

    def test_warm_pool_build_matches_cold_cli(self, tmp_path,
                                              calc_sources):
        with running_server(tmp_path) as (_, client):
            warm = client.build(self._options(calc_sources))
        assert warm["image"] == cold_image(calc_sources)

    def test_in_process_build_skips_the_pool(self, tmp_path,
                                             calc_sources):
        with running_server(tmp_path) as (_, client):
            options = dict(self._options(calc_sources),
                           hlo_jobs=1, hlo_backend="auto")
            result = client.build(options)
            assert result["summary"]["hlo_backend"] == "in-process"
            assert result["image"] == cold_image(calc_sources)
            # The server offers its pool; one effective worker never
            # spawns into it.
            pool = client.status()["process_pool"]
            assert pool["spawned"] == 0 and pool["tasks_done"] == 0

    def test_drain_closes_the_pool(self, tmp_path, calc_sources):
        with running_server(tmp_path) as (server, client):
            client.build(self._options(calc_sources))
            pool = server.state._process_pool
            assert pool is not None
        # running_server's exit drained the coordinator.
        assert pool.closed
        assert pool.worker_pids() == []


class TestLifecycle:
    def test_drain_rejects_new_sessions(self, tmp_path, calc_sources):
        with running_server(tmp_path) as (server, client):
            server._draining.set()
            with pytest.raises(FarmError) as excinfo:
                client.build({"sources": calc_sources, "opt_level": 0})
            assert excinfo.value.code == ERR_DRAINING

    def test_shutdown_removes_socket_and_pidfile(self, tmp_path):
        # The listening socket's address lives in the port file.
        server = coordinator_at(tmp_path)
        server.bind()
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        with open(server.port_file) as handle:
            assert handle.read().strip() == server.endpoint
        with open(server.pidfile) as handle:
            assert int(handle.read()) == os.getpid()
        client = FarmClient(server.endpoint, token=TOKEN)
        assert client.available()
        client.shutdown()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert not os.path.exists(server.port_file)
        assert not os.path.exists(server.pidfile)
        assert not client.available()

    def test_stale_socket_and_pidfile_reclaimed(self, tmp_path):
        # A dead coordinator left both behind: a port file naming an
        # endpoint nobody accepts on, and a pidfile.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        with open(str(tmp_path / "coordinator.port"), "w") as handle:
            handle.write("127.0.0.1:%d\n" % dead_port)
        with open(str(tmp_path / "daemon.pid"), "w") as handle:
            handle.write("999999999\n")  # certainly-dead pid
        server = coordinator_at(tmp_path)
        server.bind()  # reclaims instead of failing
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        assert FarmClient(server.endpoint, token=TOKEN).available()
        with open(server.port_file) as handle:
            assert handle.read().strip() == server.endpoint
        server.request_shutdown()
        thread.join(timeout=30.0)

    def test_live_daemon_not_stolen(self, tmp_path):
        """A second coordinator on a served root fails before it touches
        the root: the first one's boot marker is its own, and it still
        answers."""
        with running_server(tmp_path) as (server, client):
            marker = server.state._marker_path()
            with open(marker, "rb") as handle:
                before = handle.read()
            with pytest.raises(DaemonStartupError, match="already serves"):
                coordinator_at(tmp_path).bind()
            with open(marker, "rb") as handle:
                assert handle.read() == before
            assert client.status()["endpoint"] == server.endpoint

    def test_unclean_shutdown_flagged_on_restart(self, tmp_path):
        root = tmp_path / "state"
        with running_server(root) as (server, client):
            # Simulate a crash: put the boot marker back after the
            # drain removes it (the drain is this context's exit).
            marker = server.state._marker_path()
        with open(marker, "w") as handle:
            handle.write("{}")
        with running_server(root) as (server, client):
            assert server.state.recovered
            assert client.status()["recovered"] is True

    def test_recovers_corrupt_pack_state_after_crash(self, tmp_path,
                                                     calc_sources):
        """Boot-marker path with damaged repository state: a coordinator
        restarted after a crash that mangled the incremental pack
        segments must still serve a correct (byte-identical) build."""
        root = tmp_path / "state"
        state_dir = str(tmp_path / "incr")
        reference = cold_image(calc_sources, incremental=True,
                               state_dir=str(tmp_path / "ref"))

        # Populate the pack-file incremental state, then damage it the
        # way a crash would: flip bytes mid-segment, clip the footer.
        cold_image(calc_sources, incremental=True, state_dir=state_dir)
        repo_dir = os.path.join(state_dir, "incr-cmo")
        segments = [name for name in os.listdir(repo_dir)
                    if name.endswith(".pack")]
        assert segments
        for name in segments:
            path = os.path.join(repo_dir, name)
            size = os.path.getsize(path)
            with open(path, "r+b") as handle:
                handle.seek(size // 2)
                handle.write(b"\xff" * 32)
                handle.truncate(size - 4)

        os.makedirs(str(root), exist_ok=True)
        with open(os.path.join(str(root), "daemon.boot.json"),
                  "w") as handle:
            handle.write("{}")

        with running_server(root) as (server, client):
            assert server.state.recovered
            warm = client.build({
                "sources": calc_sources, "opt_level": 4,
                "state_dir": state_dir,
            })
            assert warm["image"] == reference
