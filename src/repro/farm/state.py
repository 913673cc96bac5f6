"""The coordinator's warm state: everything worth keeping resident.

A cold ``python -m repro.driver build`` re-opens, re-reads and
re-validates the artifact cache, the incremental state and the NAIM
repository index on every invocation.  :class:`WarmState` holds those
open instead:

* one shared, disk-backed :class:`~repro.sched.ArtifactCache` for
  object compiles across every project;
* one :class:`~repro.driver.compiler.CompileSession` per distinct
  (options, incremental, state dir) configuration -- each owns a
  :class:`~repro.driver.build.BuildEngine` whose object fingerprint
  cache, :class:`~repro.incr.IncrementalState` and NAIM repository
  index stay loaded between requests;
* one persistent LTRANS process pool, and the coordinator's partition
  dispatcher, which every session's compiler is handed: with farm
  workers connected the partitions go to them, with none they run in
  the pool.

Sessions are created lazily on first request and re-validate their
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

from ..driver.compiler import CompileSession
from ..driver.options import BuildConfig, parse_build_request
from ..driver.report import build_summary
from ..linker.objects import encode_executable
from ..profiles.database import ProfileDatabase
from ..sched.artifacts import ArtifactCache
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


class WarmState:
    """Long-lived build state shared by every request."""

    def __init__(self, root: str, dispatcher,
                 cache_bytes: int = 64 * 1024 * 1024) -> None:
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        #: The coordinator's :class:`~.coordinator.FarmDispatcher`;
        #: every session's compiler asks it whether workers are ready.
        self.dispatcher = dispatcher
        #: True when the previous coordinator died without a clean close
        #: (boot marker still present): persistent state was re-read
        #: and re-validated from disk rather than trusted blindly.
        self.recovered = os.path.exists(self._marker_path())
        self.artifact_cache = ArtifactCache(
            max_bytes=cache_bytes,
            directory=os.path.join(self.root, "artifacts"),
        )
        self._sessions: Dict[Tuple, CompileSession] = {}
        self._lock = threading.Lock()
        #: One persistent LTRANS process pool shared by every session:
        #: warm builds reuse the worker processes (and their decoded
        #: shared-context caches) instead of re-spawning per build.
        #: Created lazily on first session; idle workers are reaped
        #: between requests and :meth:`close` drains the pool.
        self._process_pool = None
        self._pool_lock = threading.Lock()
        self.started_at = time.time()
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

    # -- Sessions ----------------------------------------------------------------

    def session_for(self, config: BuildConfig) -> CompileSession:
        """The warm session serving this build configuration.

        Distinct configurations get distinct sessions (a session pins
        its options); repeat requests with the same
        configuration reuse the existing one -- that reuse is what
        makes a build through the coordinator warm.
        """
        key = config.session_key()
        with self._lock:
            session = self._sessions.get(key)
            if session is not None:
                self.session_reuses += 1
                return session
            session = self._make_session(config)
            self._sessions[key] = session
            self.sessions_created += 1
            return session

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

    def _make_session(self, config: BuildConfig) -> CompileSession:
        session = CompileSession.from_config(
            config, artifact_cache=self.artifact_cache, warm=True
        )
        if session.options.use_partitioned_hlo:
            session.compiler.process_pool = self.process_pool()
        session.compiler.partition_dispatcher = self.dispatcher
        return session

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
        session = self.session_for(config)
        if progress is not None:
            progress("building", warm_builds=session.builds)
        try:
            result, report, stats = session.build(
                sources, profile_db=profile_db
            )
        except RequestError:
            raise
        except Exception as exc:
            raise RequestError(
                ERR_FAILED, "%s: %s" % (type(exc).__name__, exc)
            )
        self.builds_served += 1
        self._housekeep(session)
        summary = build_summary(
            session.options, len(sources), result, report=report,
            incremental=session.incremental,
        )
        image = encode_executable(result.executable)
        return {
            "summary": summary,
            "image_b64": encode_bytes(image),
            "stats": stats.as_dict(),
        }

    def _housekeep(self, session: CompileSession) -> None:
        # Between-requests housekeeping: fold dead pack-segment frames
        # (pruned incremental blobs, superseded pools) back into live
        # segments while the coordinator is otherwise idle.  Threshold-gated,
        # so most requests pay nothing.
        reclaimed = session.compact_repositories()
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
                    "options": session.options.describe(),
                    "incremental": session.incremental,
                    "state_dir": session.state_dir,
                    "builds": session.builds,
                }
                for session in self._sessions.values()
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
        """Clean shutdown: release sessions and drop the boot marker."""
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.close()
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
        return "<WarmState %s: %d sessions, %d builds>" % (
            self.root, len(self._sessions), self.builds_served,
        )
