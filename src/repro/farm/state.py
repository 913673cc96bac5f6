"""The coordinator's warm state: everything worth keeping resident.

A cold ``python -m repro.driver build`` re-opens, re-reads and
re-validates the artifact cache, the incremental state and the NAIM
repository index on every invocation.  :class:`WarmState` holds those
open instead:

* one shared, disk-backed :class:`~repro.sched.ArtifactCache` for
  object compiles across every project;
* one :class:`~repro.driver.build.BuildEngine` per distinct
  (options, incremental, state dir) configuration, whose object
  fingerprint cache, :class:`~repro.incr.IncrementalState` and NAIM
  repository index stay loaded between requests;
* one persistent LTRANS process pool, and the coordinator's partition
  dispatcher, which every engine's compiler is handed: with farm
  workers connected the partitions go to them, with none they run in
  the pool.

Engines are created lazily on first request and re-validate their
state directories then (the incremental state tolerates corrupt or
version-skewed indexes by degrading to a first build).  A boot marker
records unclean shutdowns so a restarted coordinator can report that
it recovered rather than resumed.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Tuple

from ..driver.build import BuildEngine
from ..driver.compiler import BuildResult
from ..driver.options import BuildConfig, parse_build_request
from ..driver.report import build_summary
from ..linker.objects import encode_executable
from ..profiles.database import ProfileDatabase
from ..sched.artifacts import ArtifactCache, CacheStats
from .protocol import (
    ERR_BAD_REQUEST,
    ERR_FAILED,
    OP_BUILD,
    encode_bytes,
)

_BOOT_MARKER = "daemon.boot.json"


class RequestError(Exception):
    """A request the coordinator answers with a structured error."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def _sources_from(options: Dict) -> Dict[str, str]:
    sources = options.get("sources")
    if not isinstance(sources, dict):
        raise RequestError(
            ERR_BAD_REQUEST, "'sources' must be a {module: text} object"
        )
    if not sources:
        raise RequestError(ERR_BAD_REQUEST, "'sources' is empty")
    for name, text in sources.items():
        if not isinstance(name, str) or not isinstance(text, str):
            raise RequestError(
                ERR_BAD_REQUEST, "'sources' must map strings to strings"
            )
    return sources


def build_stats(engine: BuildEngine, result: BuildResult, seconds: float,
                cache_delta: CacheStats,
                builds_before: int) -> Dict[str, object]:
    """The reply's per-build ``stats``, read under the engine's lock.

    Artifact-cache counters are deltas (other engines share the
    cache); the engine zeroed its own counters when the build began.
    """
    stats: Dict[str, object] = {
        "seconds": seconds,
        "cache_hits": cache_delta.hits,
        "cache_misses": cache_delta.misses,
        "cache_stores": cache_delta.stores,
        "cache_hit_rate": cache_delta.hit_rate(),
        "repo_fetches": 0,
        "repo_stores": 0,
        "repo_bytes_read": 0,
        "repo_bytes_written": 0,
        "repo_reclaimable_bytes": 0,
        "loader_evictions": 0,
        "loader_offloads": 0,
        "loader_cache_hits": 0,
        "peak_bytes": result.accountant.peak,
        "n_spans": len(engine.events.spans()),
        "phase_seconds": dict(result.timings.phases),
        "warm_builds_before": builds_before,
    }
    if engine.incr_state is not None:
        repo = engine.incr_state.repository
        stats["repo_fetches"] = repo.fetches
        stats["repo_stores"] = repo.stores
        stats["repo_bytes_read"] = repo.bytes_read
        stats["repo_bytes_written"] = repo.bytes_written
        stats["repo_reclaimable_bytes"] = repo.reclaimable_bytes
    if result.hlo_result is not None:
        loader = result.hlo_result.loader.stats
        stats["loader_evictions"] = loader.compactions
        stats["loader_offloads"] = loader.offloads
        stats["loader_cache_hits"] = loader.cache_hits
        # Per-pass WPA splits ("hlo.wpa.inline", ...) beside the coarse
        # build phases, so the bench harnesses can attribute link time.
        for key, value in result.hlo_result.phase_seconds.items():
            stats["phase_seconds"]["hlo." + key] = value
    return stats


class WarmState:
    """Long-lived build state shared by every request."""

    def __init__(self, root: str, dispatcher,
                 cache_bytes: int = 64 * 1024 * 1024) -> None:
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        #: The coordinator's :class:`~.coordinator.FarmDispatcher`;
        #: every engine's compiler asks it whether workers are ready.
        self.dispatcher = dispatcher
        #: True when the previous coordinator died without a clean close
        #: (boot marker still present): persistent state was re-read
        #: and re-validated from disk rather than trusted blindly.
        self.recovered = os.path.exists(self._marker_path())
        self.artifact_cache = ArtifactCache(
            max_bytes=cache_bytes,
            directory=os.path.join(self.root, "artifacts"),
        )
        self._engines: Dict[Tuple, BuildEngine] = {}
        self._lock = threading.Lock()
        #: One persistent LTRANS process pool shared by every engine:
        #: warm builds reuse the worker processes (and their decoded
        #: shared-context caches) instead of re-spawning per build.
        #: Created lazily on first engine; idle workers are reaped
        #: between requests and :meth:`close` drains the pool.
        self._process_pool = None
        self._pool_lock = threading.Lock()
        self.started_at = time.time()
        #: Engines created and reused; ``status`` calls them sessions.
        self.sessions_created = 0
        self.session_reuses = 0
        self.builds_served = 0
        #: Pack-segment bytes reclaimed by between-requests compaction.
        self.repo_bytes_reclaimed = 0
        self._write_marker()

    # -- Boot marker -------------------------------------------------------------

    def _marker_path(self) -> str:
        return os.path.join(self.root, _BOOT_MARKER)

    def _write_marker(self) -> None:
        with open(self._marker_path(), "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "started_at": self.started_at},
                      handle)

    # -- Engines -----------------------------------------------------------------

    def engine_for(self, config: BuildConfig) -> BuildEngine:
        """The warm engine serving this build configuration.

        Distinct configurations get distinct engines (an engine pins
        its options); repeat requests with the same configuration reuse
        the existing one -- that reuse is what makes a build through
        the coordinator warm.
        """
        key = config.session_key()
        with self._lock:
            engine = self._engines.get(key)
            if engine is not None:
                self.session_reuses += 1
                return engine
            engine = BuildEngine(
                config.compiler_options(), incremental=config.incremental,
                state_dir=config.state_dir,
                artifact_cache=self.artifact_cache,
            )
            if engine.compiler.options.use_partitioned_hlo:
                engine.compiler.process_pool = self.process_pool()
            engine.compiler.partition_dispatcher = self.dispatcher
            self._engines[key] = engine
            self.sessions_created += 1
            return engine

    def process_pool(self):
        """The shared LTRANS worker-process pool (lazily created;
        None where the platform cannot run worker processes)."""
        with self._pool_lock:
            if self._process_pool is None:
                from ..part.procexec import (
                    processes_supported,
                    run_partition_job,
                )

                if not processes_supported():
                    return None
                from ..sched.procpool import ProcessWorkerPool

                self._process_pool = ProcessWorkerPool(run_partition_job)
            return self._process_pool

    # -- Request execution ---------------------------------------------------------

    def execute(self, op: str, options: Dict, progress=None) -> Dict:
        """Run one session op; returns the JSON-safe result payload.

        Raises :class:`RequestError` for anything the client should
        see as a structured failure.  ``progress(phase, **fields)`` is
        called at coarse checkpoints when provided.
        """
        if op == OP_BUILD:
            return self._execute_build(options, progress)
        raise RequestError(ERR_BAD_REQUEST, "unknown session op %r" % op)

    def _execute_build(self, options: Dict, progress) -> Dict:
        sources = _sources_from(options)
        try:
            config = parse_build_request(options)
        except ValueError as exc:
            raise RequestError(ERR_BAD_REQUEST, str(exc))
        profile_db = None
        if config.profile_path is not None:
            try:
                profile_db = ProfileDatabase.load(config.profile_path)
            except (OSError, ValueError) as exc:
                raise RequestError(
                    ERR_BAD_REQUEST,
                    "unreadable profile %r: %s" % (config.profile_path, exc),
                )
        engine = self.engine_for(config)
        if progress is not None:
            progress("building", warm_builds=engine.builds)
        with engine.lock:
            builds_before = engine.builds
            cache_before = self.artifact_cache.stats_snapshot()
            start = time.perf_counter()
            try:
                result, report = engine.build(sources, profile_db=profile_db)
            except Exception as exc:
                raise RequestError(
                    ERR_FAILED, "%s: %s" % (type(exc).__name__, exc)
                )
            stats = build_stats(
                engine, result, time.perf_counter() - start,
                self.artifact_cache.stats_snapshot().delta(cache_before),
                builds_before,
            )
        self.builds_served += 1
        self._housekeep(engine)
        summary = build_summary(
            engine.compiler.options, len(sources), result, report=report,
            incremental=config.incremental,
        )
        image = encode_executable(result.executable)
        return {
            "summary": summary,
            "image_b64": encode_bytes(image),
            "stats": stats,
        }

    def _housekeep(self, engine: BuildEngine) -> None:
        # Between-requests housekeeping: fold dead pack-segment frames
        # (pruned incremental blobs, superseded pools) back into live
        # segments while the coordinator is otherwise idle.  Threshold-gated,
        # so most requests pay nothing.
        reclaimed = engine.compact_repositories()
        if reclaimed:
            self.repo_bytes_reclaimed += reclaimed
        # Same idea for LTRANS worker processes: a parallel-build burst
        # spawns them, a quiet coordinator shouldn't pin them forever.
        with self._pool_lock:
            pool = self._process_pool
        if pool is not None:
            pool.reap_idle()

    # -- Introspection ---------------------------------------------------------------

    def status(self) -> Dict:
        with self._lock:
            sessions = [
                {
                    "options": engine.compiler.options.describe(),
                    "incremental": engine.incr_state is not None,
                    "state_dir": engine.state_dir,
                    "builds": engine.builds,
                }
                for engine in self._engines.values()
            ]
        cache_stats = self.artifact_cache.stats_snapshot()
        with self._pool_lock:
            pool = self._process_pool
        return {
            "process_pool": pool.stats() if pool is not None else None,
            "root": self.root,
            "uptime_seconds": time.time() - self.started_at,
            "recovered": self.recovered,
            "builds_served": self.builds_served,
            "sessions_created": self.sessions_created,
            "session_reuses": self.session_reuses,
            "repo_bytes_reclaimed": self.repo_bytes_reclaimed,
            "sessions": sessions,
            "artifact_cache": {
                "entries": len(self.artifact_cache),
                "bytes": self.artifact_cache.total_bytes,
                **cache_stats.as_dict(),
            },
        }

    # -- Lifecycle --------------------------------------------------------------------

    def close(self) -> None:
        """Clean shutdown: release engines and drop the boot marker."""
        with self._lock:
            engines = list(self._engines.values())
            self._engines.clear()
        for engine in engines:
            engine.close()
        with self._pool_lock:
            pool = self._process_pool
            self._process_pool = None
        if pool is not None:
            pool.close()
        try:
            os.unlink(self._marker_path())
        except OSError:
            pass

    def __repr__(self) -> str:
        return "<WarmState %s: %d engines, %d builds>" % (
            self.root, len(self._engines), self.builds_served,
        )
