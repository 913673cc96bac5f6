"""The closed profile loop through the daemon: feed, ingest, re-opt.

Covers the ``profile-ingest`` op end to end (build joins a feed, fleet
batches trigger a controller-driven rebuild, duplicates do not), the
incremental scope of those rebuilds, and the determinism guard: a
frozen profile database builds byte-identically through the warm feed
path and the cold CLI path with and without incremental state.
"""

import contextlib
import os
import threading

import pytest

from repro.driver.compiler import CompileSession, train
from repro.driver.options import CompilerOptions
from repro.linker.objects import encode_executable
from repro.profiles.database import ProfileDatabase
from repro.profserve import FleetSimulator, ProfileBatch
from repro.serve.client import DaemonClient, DaemonError
from repro.serve.daemon import BuildDaemon
from repro.serve.state import WarmState
from repro.synth.config import tiny_config
from repro.synth.generator import generate


@contextlib.contextmanager
def running_daemon(root, **kwargs):
    daemon = BuildDaemon(
        socket_path=os.path.join(str(root), "daemon.sock"),
        state_root=str(root), **kwargs
    )
    daemon.bind()
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    try:
        yield daemon, DaemonClient(daemon.socket_path)
    finally:
        daemon.request_shutdown()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "daemon failed to drain"


@pytest.fixture(scope="module")
def app():
    return generate(tiny_config())


def feed_build_options(sources, **extra):
    options = {
        "sources": dict(sources), "opt_level": 4,
        "profile_feed": "app", "selectivity": 20,
    }
    options.update(extra)
    return options


def train_batch(sources, epoch, cycles=1000, transactions=50):
    return ProfileBatch.from_database(
        epoch, train(sources, [None]), workload="zipf", samples=1,
        transactions=transactions, cycles=cycles,
    )


class TestDaemonLoop:
    def test_feed_build_then_ingest_reoptimizes(self, tmp_path, app):
        with running_daemon(tmp_path) as (_daemon, client):
            built = client.build(feed_build_options(app.sources))
            assert built["profile_feed"]["feed"] == "app"
            # No profile data yet: the first build is unselected.
            assert built["profile_feed"]["selectivity"] is None
            first_image = built["image"]

            fleet = FleetSimulator(app, seed=3)
            batches = [fleet.sample(users=2).to_wire(),
                       fleet.sample(users=2).to_wire()]
            result = client.profile_ingest(
                {"feed": "app", "batches": batches}
            )
            assert result["accepted"] == 2
            assert result["decision"]["reoptimize"]
            assert result["rebuilt"]
            # The selected rebuild differs from the unselected first cut.
            from repro.serve.protocol import decode_bytes
            assert decode_bytes(result["image_b64"]) != first_image

            # Same data again: dedup swallows it, nothing rebuilds.
            again = client.profile_ingest(
                {"feed": "app", "batches": batches}
            )
            assert again["duplicates"] == 2
            assert not again["rebuilt"]

    def test_reoptimize_flag_suppresses_rebuild(self, tmp_path, app):
        with running_daemon(tmp_path) as (_daemon, client):
            client.build(feed_build_options(app.sources))
            fleet = FleetSimulator(app, seed=3)
            result = client.profile_ingest({
                "feed": "app",
                "batches": [fleet.sample(users=2).to_wire()],
                "reoptimize": False,
            })
            assert result["accepted"] == 1
            assert result["decision"]["reoptimize"]
            assert not result["rebuilt"]

    def test_ingest_without_a_build_merges_only(self, tmp_path, app):
        with running_daemon(tmp_path) as (_daemon, client):
            fleet = FleetSimulator(app, seed=3)
            result = client.profile_ingest({
                "feed": "app",
                "batches": [fleet.sample(users=2).to_wire()],
            })
            assert result["accepted"] == 1
            assert result["decision"] is None
            assert not result["rebuilt"]

    def test_status_surfaces_ingest_counters(self, tmp_path, app):
        with running_daemon(tmp_path) as (_daemon, client):
            client.build(feed_build_options(app.sources))
            fleet = FleetSimulator(app, seed=3)
            client.profile_ingest({
                "feed": "app",
                "batches": [fleet.sample(users=2).to_wire()],
            })
            feeds = client.status()["profiles"]["feeds"]
            assert feeds["app"]["batches"] == 1
            assert feeds["app"]["samples"] == 2
            assert feeds["app"]["reoptimizations"] == 1
            assert feeds["app"]["last_decision"]["mode"] == "warmup"
            assert feeds["app"]["controller"]["current_percent"] == 20.0

    @pytest.mark.parametrize("options,pattern", [
        ({"batches": []}, "feed"),
        ({"feed": "app", "batches": {}}, "batches"),
        ({"feed": "app", "batches": [{"epoch": 0}]}, "epoch"),
    ])
    def test_bad_ingest_rejected(self, tmp_path, options, pattern):
        with running_daemon(tmp_path) as (_daemon, client):
            with pytest.raises(DaemonError, match=pattern) as info:
                client.profile_ingest(options)
            assert info.value.code == "BadRequest"


class TestIncrementalScope:
    def test_reopt_touches_only_moved_modules(self, tmp_path, app):
        state = WarmState(str(tmp_path / "root"))
        options = feed_build_options(
            app.sources, state_dir=str(tmp_path / "incr")
        )
        state.execute("build", options)
        fleet = FleetSimulator(app, seed=3)
        result = state.execute("profile-ingest", {
            "feed": "app",
            "batches": [fleet.sample(users=2).to_wire()],
        })
        assert result["rebuilt"]
        reoptimized = set(result["reoptimized"])
        reused = set(result["reused"])
        # The incremental link session covers exactly the modules the
        # controller selected for CMO: deployed set, minus what went
        # cold, plus what became hot.  Newly hot modules can never be
        # reused (their selection membership just flipped).
        decision = result["decision"]
        target = (
            set(app.sources) - set(decision["newly_cold"])
        ) | set(decision["newly_hot"])
        assert reoptimized
        assert reoptimized | reused == target
        assert reoptimized & reused == set()
        assert set(decision["newly_hot"]) <= reoptimized
        state.close()

    def test_unchanged_profiles_rebuild_byte_identical(self, tmp_path, app):
        state = WarmState(str(tmp_path / "root"))
        options = feed_build_options(
            app.sources, state_dir=str(tmp_path / "incr")
        )
        state.execute("build", options)
        fleet = FleetSimulator(app, seed=3)
        ingested = state.execute("profile-ingest", {
            "feed": "app",
            "batches": [fleet.sample(users=2).to_wire()],
        })
        assert ingested["rebuilt"]
        # A fresh build request against the unchanged feed reproduces
        # the ingest-triggered image bit for bit.
        rebuilt = state.execute("build", options)
        assert rebuilt["image_b64"] == ingested["image_b64"]
        assert rebuilt["profile_feed"]["selectivity"] == (
            ingested["decision"]["percent"]
        )
        state.close()


class TestFrozenDeterminism:
    """Frozen database -> warm feed builds == cold CLI builds."""

    @pytest.mark.parametrize("builds", [1, 2])
    @pytest.mark.parametrize("incremental", [False, True])
    def test_feed_build_matches_cold_pbo_build(self, tmp_path, app,
                                               builds, incremental):
        state = WarmState(str(tmp_path / "root"))
        options = feed_build_options(app.sources)
        if incremental:
            options["state_dir"] = str(tmp_path / "warm-incr")
        state.execute("build", options)
        batch = train_batch(app.sources, epoch=1)
        result = state.execute("profile-ingest", {
            "feed": "app", "batches": [batch.to_wire()],
        })
        assert result["rebuilt"]
        percent = result["decision"]["percent"]
        # Past the ingest-triggered rebuild, repeat build requests against
        # the unchanged feed run on the warm state it left.
        for _ in range(builds - 1):
            result = state.execute("build", options)

        # Freeze the live database exactly as the build consumed it.
        feed = state.profiles.feed("app")
        frozen = tmp_path / "frozen.json"
        feed.database.normalized_snapshot().save(str(frozen))
        state.close()

        session = CompileSession(
            CompilerOptions(opt_level=4, pbo=True,
                            selectivity_percent=percent),
            incremental=incremental,
            state_dir=(str(tmp_path / "cold-incr")
                       if incremental else None),
        )
        cold, _, _ = session.build(
            dict(app.sources),
            profile_db=ProfileDatabase.load(str(frozen)),
        )
        session.close()
        from repro.serve.protocol import decode_bytes
        assert encode_executable(cold.executable) == decode_bytes(
            result["image_b64"]
        )
