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
failures instead of stopping at the first, then link.  A shared
:class:`~repro.sched.ArtifactCache` memoizes compiled objects by
content -- ``hash(module, language, options, source)`` -- across
engine instances, generalizing the per-engine fingerprint dict, and
every step emits trace events into the engine's
:class:`~repro.sched.EventLog`.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, List, Optional, Tuple

from ..linker.objects import ObjectFile
from ..naim.memory import MemoryAccountant
from ..profiles.database import ProfileDatabase
from ..sched.artifacts import ArtifactCache
from ..sched.events import EventLog
from .compiler import BuildResult, Compiler
from .options import CompilerOptions


class RebuildReport:
    """Which modules were recompiled vs reused on one build.

    ``recompiled``/``reused``/``removed`` track the make-level object
    step (frontend + fat-object emission).  Under incremental CMO the
    ``cmo_*`` fields additionally track the link-time optimization
    step: which CMO modules re-ran the scalar pipeline + codegen vs
    splicing cached machine code.
    """

    def __init__(self) -> None:
        self.recompiled: List[str] = []
        self.reused: List[str] = []
        self.removed: List[str] = []
        self.cmo_reused: List[str] = []
        self.cmo_reoptimized: List[str] = []

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RebuildReport):
            return NotImplemented
        return (self.recompiled == other.recompiled
                and self.reused == other.reused
                and self.removed == other.removed
                and self.cmo_reused == other.cmo_reused
                and self.cmo_reoptimized == other.cmo_reoptimized)

    def __repr__(self) -> str:
        text = "<RebuildReport recompiled=%d %r reused=%d %r removed=%d %r" % (
            len(self.recompiled), self.recompiled,
            len(self.reused), self.reused,
            len(self.removed), self.removed,
        )
        if self.cmo_reused or self.cmo_reoptimized:
            text += " cmo_reused=%d cmo_reoptimized=%d" % (
                len(self.cmo_reused), len(self.cmo_reoptimized)
            )
        return text + ">"


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
    link records per-module summaries, dependency edges and codegen
    blobs in an :class:`~repro.incr.IncrementalState`, so editing one
    module re-optimizes only the modules whose consumed cross-module
    facts changed -- byte-identical to a clean build.  ``state_dir``
    persists that state (plus objects, unless ``object_dir`` is given)
    across processes; without it the state lives in memory for the
    engine's lifetime.
    """

    def __init__(
        self,
        options: Optional[CompilerOptions] = None,
        object_dir: Optional[str] = None,
        artifact_cache: Optional[ArtifactCache] = None,
        events: Optional[EventLog] = None,
        incremental: bool = False,
        state_dir: Optional[str] = None,
    ) -> None:
        if state_dir is not None:
            os.makedirs(state_dir, exist_ok=True)
            if object_dir is None:
                object_dir = os.path.join(state_dir, "objects")
        self.compiler = Compiler(options or CompilerOptions(opt_level=4))
        self.object_dir = object_dir
        self.artifact_cache = artifact_cache
        self.incr_state = None
        if incremental or state_dir is not None:
            from ..incr.state import IncrementalState

            self.incr_state = IncrementalState(
                directory=os.path.join(state_dir, "incr-cmo")
                if state_dir is not None else None
            )
        self.events = events if events is not None else EventLog()
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
    ) -> Tuple[ObjectFile, str, Optional[MemoryAccountant], object]:
        """Produce ``name``'s object, via caches when possible.

        Returns ``(object, how, accountant, llo_stats)`` where ``how``
        is "reused" (fingerprint match), "cache" (artifact-cache hit)
        or "recompiled".
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

        module = self.compiler.frontend(name, text)
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

        Counters on state that outlives one build (the incremental
        repository) are zeroed here, so two builds in one process each
        report their own numbers instead of a running total.
        """
        if self.incr_state is not None:
            self.incr_state.reset_counters()
        report = RebuildReport()

        for stale in [name for name in self._cache if name not in sources]:
            self._drop(stale)
            report.removed.append(stale)

        failures: Dict[str, Exception] = {}
        compiled = []
        for name, text in sources.items():
            step = "compile:%s" % name
            try:
                with self.events.span(step, "compile"):
                    obj, how, accountant, llo_stats = self._compile_module(
                        name, text, profile_db
                    )
            except Exception as exc:  # collected: siblings still compile
                failures[step] = exc
                continue
            compiled.append((obj, accountant, llo_stats))
            if how == "recompiled":
                report.recompiled.append(name)
            else:
                report.reused.append(name)
        if failures:
            raise BuildError(failures, ["link"], report)

        try:
            with self.events.span("link", "link"):
                result = self.compiler.link(
                    [obj for obj, _accountant, _stats in compiled],
                    profile_db,
                    incr_state=self.incr_state,
                    events=self.events,
                )
        except Exception as exc:
            raise BuildError({"link": exc}, [], report) from exc
        if result.incr_report is not None:
            report.cmo_reused = list(result.incr_report.reused)
            report.cmo_reoptimized = list(result.incr_report.reoptimized)
        for _obj, accountant, llo_stats in compiled:
            result.merge_codegen(accountant, llo_stats)
        return result, report
