"""The measured child process: set a workload up, run its timed operation
for ``--seconds``, and write what was observed as JSON.

``run.py`` starts this file in a fresh interpreter so that
``peak_rss_mb`` is the compiler's own peak: the oracle and the reference
builds of the parent never share its address space.  It is not meant to
be run by hand.

A *timed operation* is one cold ``Compiler.build`` or, for ``edit_loop``,
one ``BuildEngine.build`` after a one-module edit.  Times are medians
over all operations of the run.  Counts are per operation: the mean (for
gauges the maximum) over the first ``min_ops`` operations only, which
always run, so they repeat exactly however many operations ``--seconds``
leaves room for.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

from repro.driver import BuildEngine, Compiler, train  # noqa: E402
from repro.linker.objects import encode_executable  # noqa: E402
from repro.sched import ArtifactCache  # noqa: E402

import tracing  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from workloads import (  # noqa: E402
    REF_INPUT_SEED,
    TRAIN_INPUT_SEED,
    WARMUP_EDITS,
    WORKLOADS,
    Workload,
    apply_edit,
    check_input,
    edit_rng,
    make_app,
    make_options,
)

clock = time.perf_counter

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

_HLO_PHASES = ("wpa", "wpa.scan", "wpa.dfe", "wpa.callgraph", "wpa.ipcp",
               "wpa.clone", "wpa.inline", "scalar", "scalar.replay")
_DRIVER_PHASES = ("interface_check", "selectivity", "layout", "link")
_LOADER_COUNTS = ("touches", "compactions", "uncompactions", "offloads",
                  "repository_fetches")
_REPO_COUNTS = ("bytes_written", "bytes_read", "store_skips")
_LLO_COUNTS = ("routines", "instructions", "spilled", "stall_fills")
_PART_COUNTS = ("blob_bytes", "crashes", "requeues")

#: Per-operation numbers that are states, not flows: maximised, not averaged.
GAUGES = frozenset((
    "driver.cmo_modules", "hlo.wpa_peak_bytes", "hlo.peak_bytes",
    "naim.repo.segments", "linker.routines", "part.partitions",
    "part.effective_jobs",
))


class Operation:
    """What one timed operation returned, reduced to numbers."""

    def __init__(self, seconds: float, scale: float, result, cache_delta,
                 incr_repository) -> None:
        #: Seconds on the nominal host, and the factor that got them there.
        self.seconds = seconds
        self.scale = scale
        #: Dropped once a later operation supersedes this one's image.
        self.result = result
        image = encode_executable(result.executable)
        self.image_bytes = len(image)
        self.image_sha = hashlib.sha256(image).hexdigest()
        self.peak_model_bytes = result.accountant.peak
        self.facts = _facts(result, cache_delta, incr_repository)
        #: Position in the run's sequence of attempts (spans carry it).
        self.attempt = -1


def _facts(result, cache_delta, incr_repository) -> Dict[str, float]:
    """Per-layer numbers the public API hands back with a build.

    Every workload is a ``+O4`` build with at least one CMO module, so
    the selectivity plan, the HLO result and the LLO stats are all there.
    """
    facts: Dict[str, float] = {}
    phases = result.timings.phases
    for phase in _DRIVER_PHASES:
        facts["driver.%s_s" % phase] = phases.get(phase, 0.0)
    facts["hlo.s"] = phases.get("hlo", 0.0)
    facts["driver.cmo_modules"] = len(result.plan.cmo_modules)

    hlo = result.hlo_result
    for phase in _HLO_PHASES:
        facts["hlo.%s_s" % phase] = hlo.phase_seconds.get(phase, 0.0)
    inline = hlo.inline_stats
    facts["hlo.inlines_performed"] = inline.performed
    facts["hlo.inlines_rejected"] = (
        inline.rejected_size + inline.rejected_growth
        + inline.rejected_recursive + inline.rejected_cold
    )
    facts["hlo.clones"] = len(hlo.clones)
    facts["hlo.removed_functions"] = len(hlo.removed_functions)
    facts["hlo.wpa_peak_bytes"] = hlo.wpa_peak_bytes
    facts["hlo.peak_bytes"] = hlo.peak_bytes
    loader = hlo.loader.stats.as_dict()
    for name in _LOADER_COUNTS + ("cache_hits", "prefetches", "prefetch_hits"):
        facts["naim.loader.%s" % name] = loader[name]

    repositories = [hlo.loader.repository]
    if incr_repository is not None:
        repositories.append(incr_repository)
    io = [repository.io_stats() for repository in repositories]
    for name in _REPO_COUNTS:
        facts["naim.repo.%s" % name] = sum(stats[name] for stats in io)
    # In-memory repositories report one segment without ever writing it.
    facts["naim.repo.segments"] = sum(
        stats["segments"] for stats in io if stats["bytes_written"]
    )

    for name in _LLO_COUNTS:
        facts["llo.%s" % name] = getattr(result.llo_stats, name)
    facts["linker.routines"] = len(result.executable.routine_meta)

    ltrans = result.ltrans_stats or {}
    facts["part.partitions"] = ltrans.get("partitions", 0)
    facts["part.effective_jobs"] = ltrans.get("effective_jobs", 0)
    for name in _PART_COUNTS:
        facts["part.%s" % name] = ltrans.get(name, 0)
    facts["sched.spawn_s"] = ltrans.get("spawn_seconds", 0.0)

    facts["sched.cache_hits"] = cache_delta.hits if cache_delta else 0
    facts["sched.cache_misses"] = cache_delta.misses if cache_delta else 0
    report = result.incr_report
    facts["incr.reoptimized_modules"] = len(report.reoptimized) if report else 0
    facts["incr.reused_modules"] = len(report.reused) if report else 0
    facts["incr.changed_modules"] = (
        len(report.changed_modules) if report else 0
    )
    return facts


class Session:
    """One set-up of a workload, ready to run timed operations."""

    def __init__(self, workload: Workload, seed: int, work_dir: str,
                 quick: bool, recorder: Optional[tracing.Recorder],
                 speed: HostSpeed) -> None:
        speed.start_phase()
        started = clock()
        spent_before = speed.spent
        self.workload = workload
        self.work_dir = work_dir
        self.recorder = recorder
        self.speed = speed
        self.app = make_app(workload, quick)
        self.generate_s = clock() - started
        self.sources = dict(self.app.sources)
        self.profile = None
        self.train_s = 0.0
        if workload.pbo:
            tick = clock()
            self.profile = train(
                self.app.sources, [self.app.make_input(TRAIN_INPUT_SEED)]
            )
            self.train_s = clock() - tick
        self.engine = None
        self.cache = None
        if workload.incremental:
            self.cache = ArtifactCache(
                directory=os.path.join(work_dir, "artifacts")
            )
            self.engine = BuildEngine(
                make_options(workload), incremental=True,
                state_dir=os.path.join(work_dir, "state"),
                artifact_cache=self.cache,
            )
            self.engine.build(self.sources)  # priming build
            rng = edit_rng(None)
            for _ in range(WARMUP_EDITS):
                apply_edit(self.sources, rng)
                self.reference = self.operate()
        else:
            self.reference = self.operate()  # the discarded warm-up
        self.rng = edit_rng(seed)
        self.n_edits = 0
        # Probes ran between the operations above: leave their time out.
        speed.probe_if_due()
        scale = speed.phase_scale()
        self.setup_s = scale * (
            clock() - started - (speed.spent - spent_before)
        )
        self.generate_s *= scale
        self.train_s *= scale

    def edit(self) -> None:
        apply_edit(self.sources, self.rng)
        self.n_edits += 1

    def operate(self) -> Operation:
        """One timed operation; everything around the build is untimed."""
        workload = self.workload
        repository_dir = (
            tempfile.mkdtemp(prefix="naim-", dir=self.work_dir)
            if workload.naim_offload else None
        )
        cache_before = self.cache.stats_snapshot() if self.cache else None
        if self.engine is not None:
            def build():
                return self.engine.build(self.sources)[0]
        else:
            compiler = Compiler(make_options(workload, repository_dir))

            def build():
                return compiler.build(self.sources, profile_db=self.profile)
        if self.recorder is not None:
            build = self.recorder.wrap("driver.build", build)  # root span
        # A user's build starts on a fresh heap.  Ours holds earlier
        # results; freezing them keeps the collector from walking them
        # during the build, which is what made later builds of a run
        # slower than the first.
        gc.collect()
        gc.freeze()
        try:
            speed = self.speed
            before = speed.last
            start = clock()
            result = build()
            seconds = clock() - start
            speed.probe_if_due()
            scale = speed.scale_since(before)
            return Operation(
                seconds * scale, scale, result,
                self.cache.stats_snapshot().delta(cache_before)
                if self.cache else None,
                self.engine.incr_state.repository if self.engine else None,
            )
        finally:
            gc.unfreeze()
            if repository_dir is not None:
                shutil.rmtree(repository_dir, ignore_errors=True)

    def close(self) -> None:
        if self.engine is not None:
            self.engine.incr_state.close()


def _busy(spans: List[list], names: frozenset) -> float:
    """Seconds inside spans named in ``names``, nested ones counted once."""
    total = 0.0
    for span in spans:
        if span[tracing.NAME] not in names:
            continue
        ancestor = span[tracing.PARENT]
        while ancestor is not None and ancestor[tracing.NAME] not in names:
            ancestor = ancestor[tracing.PARENT]
        if ancestor is None:
            total += span[tracing.END] - span[tracing.START]
    return total


_SPAN_TIMES = {
    "frontend.s": frozenset(("frontend.compile_source",)),
    "driver.compile_s": frozenset(("driver.compile_object",)),
    "naim.codec.encode_s": frozenset(("naim.compact_routine",
                                      "naim.compact_symtab")),
    "naim.codec.decode_s": frozenset(("naim.uncompact_routine",
                                      "naim.uncompact_symtab")),
    "naim.repo.store_s": frozenset(("naim.repo_store",)),
    "naim.repo.fetch_s": frozenset(("naim.repo_fetch",
                                    "naim.repo_fetch_many")),
    "llo.s": frozenset(("llo.compile_routine",)),
    "linker.s": frozenset(("linker.cluster_routines", "linker.build_image")),
    "part.run_s": frozenset(("part.run",)),
}


#: Layers that own at least one span.
LAYERS = sorted({tracing.layer_of(entry.span) for entry in tracing.WRAP_TABLE})


def _span_facts(spans: List[list], thread: int) -> Dict[str, float]:
    """Per-layer numbers of one operation that only its spans carry."""
    facts = {name: _busy(spans, group) for name, group in _SPAN_TIMES.items()}
    totals = tracing.totals(spans)

    def total(span_name: str, field: str) -> float:
        return totals.get(span_name, {}).get(field, 0)

    facts["frontend.modules"] = total("frontend.compile_source", "calls")
    facts["frontend.lines"] = total("frontend.compile_source", "weight")
    facts["hlo.il_instrs_after"] = total("llo.compile_routine", "weight")
    facts["naim.codec.encode_calls"] = (
        total("naim.compact_routine", "calls")
        + total("naim.compact_symtab", "calls")
    )
    facts["naim.codec.decode_calls"] = (
        total("naim.uncompact_routine", "calls")
        + total("naim.uncompact_symtab", "calls")
    )
    self_s = tracing.self_times(spans, thread)
    for layer in LAYERS:
        facts["self.%s_s" % layer] = self_s.get(layer, 0.0)
    facts["driver.self_s"] = facts["self.driver_s"]
    return facts


def _is_time(name: str) -> bool:
    return name.endswith("_s") or name.endswith(".s")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(per_op: List[Dict[str, float]], window: int,
                  run_facts: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of a traced run, by name."""
    head = per_op[:window]
    out: Dict[str, float] = dict(run_facts)
    win: Dict[str, float] = {}
    for name in per_op[0]:
        values = [facts[name] for facts in head]
        win[name] = max(values) if name in GAUGES else sum(values) / len(head)
        if _is_time(name):
            out[name] = statistics.median(facts[name] for facts in per_op)
        else:
            out[name] = win[name]
    out["frontend.lines_per_s"] = _ratio(win["frontend.lines"],
                                         win["frontend.s"])
    out["hlo.inline_accept_ratio"] = _ratio(
        win["hlo.inlines_performed"],
        win["hlo.inlines_performed"] + win["hlo.inlines_rejected"],
    )
    out["naim.loader.cache_hit_ratio"] = _ratio(
        win["naim.loader.cache_hits"], win["naim.loader.touches"]
    )
    out["naim.loader.prefetch_hit_ratio"] = _ratio(
        win["naim.loader.prefetch_hits"], win["naim.loader.prefetches"]
    )
    out["llo.instrs_per_s"] = _ratio(win["llo.instructions"], win["llo.s"])
    out["sched.cache_hit_ratio"] = _ratio(
        win["sched.cache_hits"],
        win["sched.cache_hits"] + win["sched.cache_misses"],
    )
    out["incr.reuse_ratio"] = _ratio(
        win["incr.reused_modules"],
        win["incr.reused_modules"] + win["incr.reoptimized_modules"],
    )
    out["vm.instrs_per_s"] = _ratio(out["vm.instrs"], out["vm.run_s"])
    return out


def timed_section(session: Session, min_ops: int, seconds: float):
    """The closed loop of one client: operate until ``seconds`` are up.

    Returns the operations that completed, how many were attempted and
    failed, and what went wrong.
    """
    workload = session.workload
    recorder = session.recorder
    reference = session.reference
    operations: List[Operation] = []
    attempted = 0
    failed = 0
    problems: List[str] = []
    started = clock()
    while attempted < min_ops or clock() - started < seconds:
        if workload.incremental:
            session.edit()
        if recorder is not None:
            recorder.op = attempted
        attempted += 1
        try:
            operation = session.operate()
        except Exception as exc:  # a failed build is a failed operation
            failed += 1
            problems.append("operation raised %s: %s"
                            % (type(exc).__name__, exc))
            continue
        finally:
            if recorder is not None:
                recorder.op = -1
        operation.attempt = attempted - 1
        if not workload.incremental and (
            operation.image_sha != reference.image_sha
        ):
            failed += 1
            problems.append("operation %d: image differs from the warm-up's"
                            % operation.attempt)
        if operations:
            operations[-1].result = None  # only the numbers are kept
        operations.append(operation)
    return operations, attempted, failed, problems


def traced_report(session: Session, operations: List[Operation],
                  window: int, run_facts: Dict[str, float],
                  trace_out: Optional[str]) -> Dict[str, object]:
    """What the spans of a traced run add to its result."""
    recorder = session.recorder
    thread = threading.get_ident()
    by_op = recorder.by_op()
    per_op = []
    coverage = []
    for operation in operations:
        facts = dict(operation.facts)
        facts.update(_span_facts(by_op.get(operation.attempt, []), thread))
        coverage.append(
            sum(facts["self.%s_s" % layer] for layer in LAYERS)
            * operation.scale / operation.seconds
        )
        per_op.append({
            name: value * operation.scale if _is_time(name) else value
            for name, value in facts.items()
        })
    # Every operation of a cold workload must count the same.
    problems = []
    checked = 0
    if not session.workload.incremental:
        for operation, facts in zip(operations[1:], per_op[1:]):
            checked += 1
            drift = sorted(
                name for name, value in facts.items()
                if not _is_time(name) and value != per_op[0][name]
            )
            if drift:
                problems.append(
                    "operation %d: counts differ from the first's: %s"
                    % (operation.attempt, drift)
                )
    if trace_out:
        tracing.write_chrome_trace(
            by_op.get(operations[-1].attempt, []), trace_out
        )
    per_layer = layer_metrics(per_op, window, run_facts)
    return {
        "self_s": {layer: per_layer.pop("self.%s_s" % layer)
                   for layer in LAYERS},
        "per_layer": per_layer,
        # Share of an operation's wall time the layers' self times explain.
        "self_time_coverage": statistics.median(coverage),
        "wrapper_calls": {
            name: row["calls"]
            for name, row in tracing.totals(recorder.spans).items()
        },
        "count_checks": checked,
        "count_problems": problems,
    }


def measure(spec: Dict[str, object]) -> Dict[str, object]:
    workload = WORKLOADS[str(spec["workload"])]
    seed = int(spec["seed"])
    quick = bool(spec["quick"])
    trace = bool(spec["trace"])
    work_dir = str(spec["work_dir"])
    min_ops = workload.quick_ops if quick else workload.min_ops
    seconds = 0.0 if quick else float(spec["seconds"])

    recorder = None
    if trace:
        recorder = tracing.Recorder()
        tracing.install(recorder)
    speed = HostSpeed()

    # Set-up, several times over; the last one is measured on.
    session = None
    setup_samples = []
    for index in range(1 if trace else SETUP_REPEATS):
        if session is not None:
            session.close()
            session = None  # its results must not weigh on the next set-up
        setup_dir = os.path.join(work_dir, "setup%d" % index)
        os.makedirs(setup_dir)
        session = Session(workload, seed, setup_dir, quick, recorder, speed)
        setup_samples.append(session.setup_s)
    reference = session.reference

    operations, attempted, failed, problems = timed_section(
        session, min_ops, seconds
    )
    if not operations:
        raise SystemExit("no timed operation succeeded: %s" % problems)
    final = operations[-1] if workload.incremental else reference

    # The shipped code: cycles on the reference input, and the value on
    # this seed's check input for the parent's oracle.
    before = speed.last
    tick = clock()
    ref_run = reference.result.run(session.app.make_input(REF_INPUT_SEED))
    vm_run_s = clock() - tick
    speed.probe_if_due()
    vm_run_s *= speed.scale_since(before)
    check_run = final.result.run(check_input(session.app, seed))
    session.close()

    samples = [operation.seconds for operation in operations]
    build_s = statistics.median(samples)
    lines = session.app.source_lines()
    out: Dict[str, object] = {
        "workload": workload.name,
        "seed": seed,
        "operations": len(operations),
        "n_edits": session.n_edits,
        "samples_s": samples,
        "host_scale": statistics.median(o.scale for o in operations),
        "setup_samples_s": setup_samples,
        "reference_image_sha": reference.image_sha,
        "final_image_sha": final.image_sha,
        "check_value": check_run.value,
        "end_to_end": {
            "setup_s": statistics.median(setup_samples),
            "build_s": build_s,
            "rebuild_p75_s": statistics.quantiles(
                samples, n=4, method="inclusive")[2],
            "lines_per_s": lines / build_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "peak_model_bytes": reference.peak_model_bytes,
            "vm_cycles": ref_run.cycles,
            "image_bytes": reference.image_bytes,
        },
    }
    if recorder is not None:
        traced = traced_report(session, operations, min_ops, {
            "synth.generate_s": session.generate_s,
            "synth.lines": lines,
            "synth.modules": len(session.app.sources),
            "profiles.train_s": session.train_s,
            "profiles.routines": len(session.profile.routines)
            if session.profile else 0,
            "vm.run_s": vm_run_s,
            "vm.instrs": ref_run.instructions,
            "part.worker_rss_mb": resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        }, spec.get("trace_out"))
        attempted += traced.pop("count_checks")
        count_problems = traced.pop("count_problems")
        failed += len(count_problems)
        problems += count_problems
        out.update(traced)
    out["attempted"] = attempted
    out["failed"] = failed
    out["problems"] = problems
    return out


def main(argv: List[str]) -> int:
    with open(argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    result = measure(spec)
    with open(argv[2], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
