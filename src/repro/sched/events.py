"""Build-event tracing.

Every build step emits structured start/finish/cache-hit/error
events with wall-clock spans.  The log exports two ways:

* :meth:`EventLog.to_chrome_trace` -- Chrome ``trace_event`` JSON
  (load in ``chrome://tracing`` / Perfetto); complete events
  (``"ph": "X"``) for spans, instants (``"ph": "i"``) for cache hits
  and errors, with one row per worker lane;
* :meth:`EventLog.summary` -- a text report alongside
  :class:`~repro.driver.compiler.BuildTimings`: per-category totals,
  slowest tasks, cache hits.

Timestamps are ``perf_counter`` microseconds relative to the log's
creation; appends are lock-protected because coordinator builds log from
their request threads.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, List, Optional


class BuildEvent:
    """One structured build event.

    ``kind`` is "span" (has a duration), "instant" (cache_hit, error)
    or "counter".  ``ts_us``/``dur_us`` are microseconds since the
    owning log's epoch.
    """

    __slots__ = ("name", "category", "kind", "ts_us", "dur_us", "worker",
                 "args")

    def __init__(
        self,
        name: str,
        category: str,
        kind: str,
        ts_us: int,
        dur_us: int = 0,
        worker: int = 0,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.category = category
        self.kind = kind
        self.ts_us = ts_us
        self.dur_us = dur_us
        self.worker = worker
        self.args = args or {}

    def __repr__(self) -> str:
        return "<BuildEvent %s %s @%dus +%dus w%d>" % (
            self.kind, self.name, self.ts_us, self.dur_us, self.worker
        )


class _Span:
    """Context manager recording one complete event on exit."""

    def __init__(self, log: "EventLog", name: str, category: str,
                 worker: int, args: Optional[Dict[str, object]]) -> None:
        self.log = log
        self.name = name
        self.category = category
        self.worker = worker
        self.args = args

    def __enter__(self) -> "_Span":
        self.start_us = self.log.now_us()
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        end_us = self.log.now_us()
        args = dict(self.args or {})
        if exc is not None:
            args["error"] = "%s: %s" % (type(exc).__name__, exc)
        self.log.append(BuildEvent(
            self.name, self.category, "span",
            self.start_us, end_us - self.start_us, self.worker, args,
        ))
        if exc is not None:
            self.log.instant("error:%s" % self.name, category="error",
                             worker=self.worker, args=args)


class EventLog:
    """Thread-safe accumulator of build events."""

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self.events: List[BuildEvent] = []

    def now_us(self) -> int:
        return int((time.perf_counter() - self._epoch) * 1_000_000)

    def clear(self) -> None:
        """Drop recorded events and restart the epoch.

        A warm compile session reuses one log across builds; clearing
        at build start keeps per-build task counts and trace exports
        scoped to the build that produced them."""
        with self._lock:
            self.events = []
            self._epoch = time.perf_counter()

    def append(self, event: BuildEvent) -> None:
        with self._lock:
            self.events.append(event)

    def span(self, name: str, category: str = "task", worker: int = 0,
             args: Optional[Dict[str, object]] = None) -> _Span:
        """``with log.span("compile:m1", "compile"): ...``"""
        return _Span(self, name, category, worker, args)

    def instant(self, name: str, category: str = "event", worker: int = 0,
                args: Optional[Dict[str, object]] = None) -> None:
        self.append(BuildEvent(name, category, "instant", self.now_us(),
                               0, worker, args))

    # -- Queries -----------------------------------------------------------------

    def spans(self, category: Optional[str] = None) -> List[BuildEvent]:
        return [e for e in self.events if e.kind == "span"
                and (category is None or e.category == category)]

    def count(self, kind: Optional[str] = None,
              category: Optional[str] = None) -> int:
        return sum(
            1 for e in self.events
            if (kind is None or e.kind == kind)
            and (category is None or e.category == category)
        )

    # -- Chrome trace_event export -----------------------------------------------

    def to_chrome_trace(self) -> Dict[str, object]:
        """The log as a Chrome ``trace_event`` JSON object."""
        trace_events: List[Dict[str, object]] = []
        workers = sorted({e.worker for e in self.events})
        for worker in workers:
            trace_events.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": worker,
                "args": {"name": "worker-%d" % worker},
            })
        for event in self.events:
            record: Dict[str, object] = {
                "name": event.name,
                "cat": event.category,
                "pid": 1,
                "tid": event.worker,
                "ts": event.ts_us,
            }
            if event.kind == "span":
                record["ph"] = "X"
                record["dur"] = event.dur_us
            else:
                record["ph"] = "i"
                record["s"] = "t"
            if event.args:
                record["args"] = {k: str(v) for k, v in event.args.items()}
            trace_events.append(record)
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=1)
            handle.write("\n")

    # -- Text report ---------------------------------------------------------------

    def summary(self, top: int = 5) -> str:
        """Per-category span totals plus the slowest individual tasks."""
        by_category: Dict[str, List[BuildEvent]] = {}
        for event in self.spans():
            by_category.setdefault(event.category, []).append(event)
        lines = ["build events: %d (%d spans)"
                 % (len(self.events), len(self.spans()))]
        for category in sorted(by_category):
            events = by_category[category]
            total_ms = sum(e.dur_us for e in events) / 1000.0
            lines.append("  %-10s %4d tasks  %8.2fms total"
                         % (category, len(events), total_ms))
        slowest = sorted(self.spans(), key=lambda e: -e.dur_us)[:top]
        if slowest:
            lines.append("  slowest:")
            for event in slowest:
                lines.append("    %-28s %8.2fms (worker %d)"
                             % (event.name, event.dur_us / 1000.0,
                                event.worker))
        hits = self.count(kind="instant", category="cache")
        if hits:
            lines.append("  cache hits: %d" % hits)
        errors = self.count(category="error")
        if errors:
            lines.append("  errors: %d" % errors)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "<EventLog %d events>" % len(self.events)
