"""Spans around the layers' public entry points, recorded from outside ``src/``.

:func:`install` replaces each entry point named in :data:`WRAP_TABLE` by
a wrapper that records one span per call -- name, start, end, the span
that was open on the same thread when it started, and the id of the
timed operation it belongs to -- in memory.  Functions are replaced in
every ``repro`` module namespace that imported them, methods on their
class.  Nothing under ``src/`` changes; spans inside worker processes
are out of scope (ROADMAP "One trace"), so for ``parallel_ltrans`` the
``part``/``sched`` spans are the coordinator's wait.

A layer's *self time* is its spans' duration minus the part their child
spans cover; over one operation's span tree the self times add up to
the root span exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional


class Entry(NamedTuple):
    #: Span name; the part before the first dot is the layer.
    span: str
    module: str
    #: ``function`` or ``Class.method`` inside ``module``.
    attr: str
    #: Optional ``weigh(*args)`` evaluated before the call; the span
    #: carries its value (e.g. the size of the IL handed to a layer).
    weigh: Optional[Callable[..., int]] = None


WRAP_TABLE: List[Entry] = [
    Entry("frontend.compile_source", "repro.frontend", "compile_source",
          weigh=lambda source, *_rest: source.count("\n") + 1),
    Entry("driver.compile_object", "repro.driver.compiler",
          "Compiler.compile_object_with_stats"),
    Entry("driver.link_into", "repro.driver.compiler", "Compiler.link_into"),
    Entry("hlo.optimize", "repro.hlo.driver", "HighLevelOptimizer.optimize"),
    Entry("hlo.run_scalar_phase", "repro.hlo.driver",
          "HighLevelOptimizer.run_scalar_phase"),
    Entry("naim.compact_routine", "repro.naim.compaction", "compact_routine"),
    Entry("naim.compact_symtab", "repro.naim.compaction", "compact_symtab"),
    Entry("naim.uncompact_routine", "repro.naim.compaction",
          "uncompact_routine"),
    Entry("naim.uncompact_symtab", "repro.naim.compaction",
          "uncompact_symtab"),
    Entry("naim.repo_store", "repro.naim.repository", "Repository.store"),
    Entry("naim.repo_fetch", "repro.naim.repository", "Repository.fetch"),
    Entry("naim.repo_fetch_many", "repro.naim.repository",
          "Repository.fetch_many"),
    Entry("naim.loader_touch", "repro.naim.loader", "Loader.touch"),
    Entry("llo.compile_routine", "repro.llo.driver",
          "LowLevelOptimizer.compile_routine",
          weigh=lambda _llo, routine, *_rest: routine.instr_count()),
    # RemotePartitionRunner (the process backend's base) overrides run().
    Entry("part.run", "repro.part.runner", "PartitionRunner.run"),
    Entry("part.run", "repro.part.remote", "RemotePartitionRunner.run"),
    Entry("sched.run_batch", "repro.sched.procpool",
          "ProcessWorkerPool.run_batch"),
    Entry("incr.begin_link", "repro.incr.state",
          "IncrementalState.begin_link"),
    Entry("incr.commit", "repro.incr.state", "IncrementalState.commit"),
    Entry("linker.cluster_routines", "repro.linker.clustering",
          "cluster_routines"),
    Entry("linker.build_image", "repro.linker.link", "build_image"),
    Entry("vm.run_image", "repro.vm.machine", "run_image"),
]

# Span fields, by index (lists, not objects: the wrappers are hot).
NAME, START, END, PARENT, THREAD, OP, WEIGHT = range(7)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Recorder:
    """In-memory span store; one per traced process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: Id of the timed operation in progress; -1 outside of one.
        self.op = -1
        self._local = threading.local()

    def _stack(self) -> List[list]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def wrap(self, name: str, fn: Callable,
             weigh: Optional[Callable[..., int]] = None) -> Callable:
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            weight = weigh(*args) if weigh is not None else 0
            span = [name, clock(), 0.0, stack[-1] if stack else None,
                    threading.get_ident(), self.op, weight]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                self.spans.append(span)

        return traced

    # -- Reading -------------------------------------------------------------

    def by_op(self) -> Dict[int, List[list]]:
        grouped: Dict[int, List[list]] = defaultdict(list)
        for span in self.spans:
            grouped[span[OP]].append(span)
        return grouped


def install(recorder: Recorder, table: Iterable[Entry] = WRAP_TABLE) -> None:
    """Wrap every entry point of ``table`` (idempotence is not needed:
    the measured child installs once and exits)."""
    entries = list(table)
    modules = {e.module: importlib.import_module(e.module) for e in entries}
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "repro" or n.startswith("repro."))]
    for entry in entries:
        owner_name, _, method = entry.attr.rpartition(".")
        if owner_name:
            owner = getattr(modules[entry.module], owner_name)
            # vars(), not getattr: only wrap where the method is defined.
            original = vars(owner)[method]
            setattr(owner, method,
                    recorder.wrap(entry.span, original, entry.weigh))
            continue
        original = getattr(modules[entry.module], entry.attr)
        wrapper = recorder.wrap(entry.span, original, entry.weigh)
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapper)


# -- Derived numbers ----------------------------------------------------------


def self_times(spans: List[list], thread: int) -> Dict[str, float]:
    """Self seconds per layer over ``thread``'s spans of one operation."""
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span[THREAD] == thread and span[PARENT] is not None:
            covered[id(span[PARENT])] += span[END] - span[START]
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span[THREAD] == thread:
            out[layer_of(span[NAME])] += (
                span[END] - span[START] - covered[id(span)]
            )
    return dict(out)


def totals(spans: List[list]) -> Dict[str, Dict[str, int]]:
    """Per span name: calls and summed weight."""
    out: Dict[str, Dict[str, int]] = {}
    for span in spans:
        row = out.setdefault(span[NAME], {"calls": 0, "weight": 0})
        row["calls"] += 1
        row["weight"] += span[WEIGHT]
    return out


def write_chrome_trace(spans: List[list], path: str) -> None:
    """Spans as Chrome-trace complete events (``chrome://tracing``)."""
    ids = {id(span): index for index, span in enumerate(spans)}
    origin = min((span[START] for span in spans), default=0.0)
    events = [
        {
            "name": span[NAME], "cat": layer_of(span[NAME]), "ph": "X",
            "pid": 1, "tid": span[THREAD],
            "ts": (span[START] - origin) * 1e6,
            "dur": (span[END] - span[START]) * 1e6,
            "args": {
                "id": ids[id(span)],
                "parent": ids.get(id(span[PARENT])),
                "op": span[OP],
            },
        }
        for span in spans
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
