"""Make-compatible incremental builds (paper §6.1).

"Our system works with existing processes by maintaining all persistent
information (save for profile data) in object files, and rebuilding
program-wide information at optimization time."

The :class:`BuildEngine` is that process: it tracks source fingerprints
-> object files exactly like make tracks mtimes, recompiles only
changed modules, and relinks.  Under +O4 the objects are fat IL
objects, so editing one module reuses every other module's frontend
work while HLO re-optimizes the whole program at link time -- the
trade-off the paper explicitly chose over a persistent program
database ("the disadvantage is that no persistent program library is
available to minimize re-compilation").

A build is a loop: compile each module in source order, collecting
failures instead of stopping at the first, then link.  It is the one
build loop of the CLI and the build coordinator; ``Compiler.build`` is
the library's one-shot build.  Objects are reused at two levels: the
engine's own fingerprint dict answers "did *this engine* already
compile this source?", and a shared :class:`~repro.sched.ArtifactCache`
answers "has *anyone with the same inputs* compiled it?" --
``hash(module, language, options, source)`` -- across engine instances
and processes.  Every step emits trace events into the engine's
:class:`~repro.sched.EventLog`.
"""

from __future__ import annotations

import os
import threading
import warnings
from typing import Dict, List, Optional, Tuple

from ..linker.objects import ObjectFile
from ..naim.memory import MemoryAccountant
from ..profiles.database import ProfileDatabase
from ..sched.artifacts import ArtifactCache
from ..sched.events import EventLog
from .compiler import BuildResult, BuildTimings, Compiler, _Timer
from .options import CompilerOptions


class RebuildReport:
    """Which modules were recompiled vs reused on one build.

    ``recompiled``/``reused``/``removed`` track the make-level object
    step (frontend + fat-object emission).  Under incremental CMO the
    link-time step's reuse (which CMO modules re-ran the scalar
    pipeline + codegen vs splicing cached machine code) is the
    result's ``incr_report``.
    """

    def __init__(self) -> None:
        self.recompiled: List[str] = []
        self.reused: List[str] = []
        self.removed: List[str] = []

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RebuildReport):
            return NotImplemented
        return (self.recompiled == other.recompiled
                and self.reused == other.reused
                and self.removed == other.removed)

    def __repr__(self) -> str:
        return (
            "<RebuildReport recompiled=%d %r reused=%d %r removed=%d %r>"
            % (len(self.recompiled), self.recompiled,
               len(self.reused), self.reused,
               len(self.removed), self.removed)
        )


class BuildError(Exception):
    """A build failed; every module's diagnostic is collected.

    ``failures`` maps step id (``compile:<module>``, or ``link``) to
    the exception; ``cancelled`` lists steps skipped because of them
    (the link, for a compile failure); ``report`` records what the
    healthy modules did before the failure surfaced.
    """

    def __init__(self, failures: Dict[str, Exception], cancelled: List[str],
                 report: RebuildReport) -> None:
        self.failures = failures
        self.cancelled = cancelled
        self.report = report
        super().__init__(
            "%d task(s) failed (%d cancelled): %s"
            % (len(failures), len(cancelled),
               "; ".join("%s: %s" % item for item in failures.items()))
        )


class BuildEngine:
    """Incremental source -> object -> executable builds.

    ``object_dir=None`` keeps objects in memory; a directory persists
    them as ``.o`` files across engine instances (a real make-style
    workspace).  ``artifact_cache`` plugs in a shared
    content-addressed object store.

    ``incremental=True`` turns on summary-based incremental CMO: the
    link records per-module summaries and per-routine codegen in an
    :class:`~repro.incr.IncrementalState`, so editing one module
    recompiles only the routines whose consumed cross-module facts
    changed -- byte-identical to a clean build.  ``state_dir``
    persists that state (plus objects, unless ``object_dir`` is given)
    across processes; without it the state lives in memory for the
    engine's lifetime.

    One engine may serve many builds in one process (the coordinator
    keeps one per build configuration): builds are serialized by
    :attr:`lock`, and each starts by resetting the per-build counters
    of the state that outlives it (event log, incremental repository).
    """

    def __init__(
        self,
        options: Optional[CompilerOptions] = None,
        object_dir: Optional[str] = None,
        artifact_cache: Optional[ArtifactCache] = None,
        incremental: bool = False,
        state_dir: Optional[str] = None,
    ) -> None:
        if state_dir is not None:
            os.makedirs(state_dir, exist_ok=True)
            if object_dir is None:
                object_dir = os.path.join(state_dir, "objects")
        self.compiler = Compiler(options or CompilerOptions(opt_level=4))
        self.object_dir = object_dir
        self.state_dir = state_dir
        self.artifact_cache = artifact_cache
        self.incr_state = None
        if incremental or state_dir is not None:
            from ..incr.state import IncrementalState

            self.incr_state = IncrementalState(
                directory=os.path.join(state_dir, "incr-cmo")
                if state_dir is not None else None
            )
        self.events = EventLog()
        #: Builds completed by this engine.
        self.builds = 0
        #: Held by every build; a caller reading per-build counters
        #: after one holds it across both (it is reentrant).
        self.lock = threading.RLock()
        #: module name -> (fingerprint, object).
        self._cache: Dict[str, Tuple[str, ObjectFile]] = {}
        if object_dir is not None:
            os.makedirs(object_dir, exist_ok=True)
            self._load_object_dir()

    # -- Object persistence ------------------------------------------------------

    def _object_path(self, module_name: str) -> str:
        assert self.object_dir is not None
        return os.path.join(self.object_dir, module_name + ".o")

    def _load_object_dir(self) -> None:
        assert self.object_dir is not None
        for entry in sorted(os.listdir(self.object_dir)):
            if not entry.endswith(".o"):
                continue
            path = os.path.join(self.object_dir, entry)
            try:
                with open(path, "rb") as handle:
                    obj = ObjectFile.from_bytes(handle.read())
            except Exception as exc:
                # Corrupt or truncated object: recompile instead of
                # taking the whole workspace down.
                warnings.warn(
                    "skipping unreadable object %s (%s: %s)"
                    % (path, type(exc).__name__, exc)
                )
                continue
            self._cache[obj.module_name] = (obj.source_fingerprint, obj)

    def _store(self, obj: ObjectFile) -> None:
        self._cache[obj.module_name] = (obj.source_fingerprint, obj)
        if self.object_dir is not None:
            with open(self._object_path(obj.module_name), "wb") as handle:
                handle.write(obj.to_bytes())

    def _drop(self, module_name: str) -> None:
        self._cache.pop(module_name, None)
        if self.object_dir is not None:
            path = self._object_path(module_name)
            if os.path.exists(path):
                os.unlink(path)

    # -- Compiling one module ----------------------------------------------------

    def _artifact_key(self, name: str, text: str) -> str:
        return ArtifactCache.key(
            text,
            language="auto",
            options=self.compiler.options.describe(),
            module=name,
        )

    def _compile_module(
        self,
        name: str,
        text: str,
        profile_db: Optional[ProfileDatabase],
        timings: BuildTimings,
    ) -> Tuple[ObjectFile, str, Optional[MemoryAccountant], object]:
        """Produce ``name``'s object, via caches when possible.

        Returns ``(object, how, accountant, llo_stats)`` where ``how``
        is "reused" (fingerprint match), "cache" (artifact-cache hit)
        or "recompiled".  A recompiled module's frontend and object
        compile are timed into ``timings`` and traced as spans.
        """
        fingerprint = ObjectFile.fingerprint(text)
        cached = self._cache.get(name)
        if cached is not None and cached[0] == fingerprint:
            return cached[1], "reused", None, None

        art_key = None
        if self.artifact_cache is not None:
            art_key = self._artifact_key(name, text)
            data = self.artifact_cache.get(art_key)
            if data is not None:
                try:
                    obj = ObjectFile.from_bytes(data)
                except Exception:
                    obj = None  # corrupt artifact: fall through, recompile
                if obj is not None and obj.module_name == name and (
                    obj.source_fingerprint == fingerprint
                ):
                    self.events.instant("cache_hit:%s" % name,
                                        category="cache")
                    self._store(obj)
                    return obj, "cache", None, None

        with _Timer(timings, "frontend"), self.events.span(
            "frontend:%s" % name, "frontend"
        ):
            module = self.compiler.frontend(name, text)
        with _Timer(timings, "compile"), self.events.span(
            "compile:%s" % name, "compile"
        ):
            accountant = MemoryAccountant()
            obj, llo_stats = self.compiler.compile_object_with_stats(
                module, profile_db, fingerprint=fingerprint,
                accountant=accountant,
            )
            self._store(obj)
            if art_key is not None:
                self.artifact_cache.put(art_key, obj.to_bytes())
        return obj, "recompiled", accountant, llo_stats

    # -- Building ------------------------------------------------------------------

    def build(
        self,
        sources: Dict[str, str],
        profile_db: Optional[ProfileDatabase] = None,
    ) -> Tuple[BuildResult, RebuildReport]:
        """Recompile what changed, relink, return both artifacts.

        Raises :class:`BuildError` if any module fails to compile; all
        sibling modules still run first, so the error carries every
        module's diagnostic, not just the first.
        """
        with self.lock:
            self.events.clear()
            if self.incr_state is not None:
                self.incr_state.reset_counters()
            outcome = self._build(sources, profile_db)
            self.builds += 1
            return outcome

    def _build(
        self,
        sources: Dict[str, str],
        profile_db: Optional[ProfileDatabase],
    ) -> Tuple[BuildResult, RebuildReport]:
        report = RebuildReport()
        for stale in [name for name in self._cache if name not in sources]:
            self._drop(stale)
            report.removed.append(stale)

        result = BuildResult()
        result.options_used = self.compiler.options.describe()
        failures: Dict[str, Exception] = {}
        for name, text in sources.items():
            try:
                obj, how, accountant, llo_stats = self._compile_module(
                    name, text, profile_db, result.timings
                )
            except Exception as exc:  # collected: siblings still compile
                failures["compile:%s" % name] = exc
                continue
            result.objects.append(obj)
            result.merge_codegen(accountant, llo_stats)
            if how == "recompiled":
                report.recompiled.append(name)
            else:
                report.reused.append(name)
        if failures:
            raise BuildError(failures, ["link"], report)
        result.source_lines = sum(obj.source_lines for obj in result.objects)

        try:
            with self.events.span("link", "link"):
                self.compiler.link_into(
                    result.objects, profile_db, result,
                    incr_state=self.incr_state, events=self.events,
                )
        except Exception as exc:
            raise BuildError({"link": exc}, [], report) from exc
        return result, report

    # -- Long-lived state ----------------------------------------------------------

    def compact_repositories(self) -> int:
        """Compact the incremental repository; returns bytes freed.

        Cheap when nothing is reclaimable -- the coordinator calls this
        between requests so dead frames from pruned incremental blobs
        don't accumulate across a long-lived process.
        """
        if self.incr_state is None:
            return 0
        with self.lock:
            return self.incr_state.repository.maybe_compact()

    def close(self) -> None:
        """Release persistent state (the incremental repository)."""
        if self.incr_state is not None:
            self.incr_state.close()

    def __repr__(self) -> str:
        return "<BuildEngine %s%s builds=%d>" % (
            self.compiler.options.describe(),
            " incremental" if self.incr_state is not None else "",
            self.builds,
        )
