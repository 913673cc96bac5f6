"""Cost guards for the edit-compile cycle: counts, not timings.

After a one-module edit on a warm :class:`BuildEngine`, the work done
*around* the whole-program analysis must track what the edit touched:
no cached machine code is decoded again, only the recompiled object is
summarised, plan replay stays inside the import closure of what will be
compiled, and the call graph is condensed once however often it is
asked about recursion.  Each assertion fails on the code it replaced
(decode per reused module, hash per module, whole-unit replay, one
search per callee).
"""

from __future__ import annotations

import pytest

import repro.hlo.driver as hlo_driver
import repro.incr.state as incr_state
import repro.ir.callgraph as callgraph
from repro.driver.build import BuildEngine
from repro.driver.compiler import Compiler
from repro.driver.options import CompilerOptions
from repro.incr.summary import ModuleSummary
from repro.linker.objects import encode_executable
from repro.naim.pools import KIND_IR
from repro.synth import WorkloadConfig, generate
from synth_edits import bump


class Counter:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


@pytest.fixture
def warm():
    """A warm engine two builds in, and the sources of a third: one more
    edit of one module that is not ``main``."""
    app = generate(WorkloadConfig(
        "guard", n_modules=8, routines_per_module=4, n_features=3,
        dispatch_count=40, input_size=16, seed=11,
    ))
    sources = dict(app.sources)
    victim = sorted(name for name in sources if name != "main")[2]
    engine = BuildEngine(CompilerOptions(opt_level=4), incremental=True)
    engine.build(sources)
    sources[victim] = bump(sources[victim])
    engine.build(sources)
    sources[victim] = bump(sources[victim])
    return engine, sources, victim


def test_an_edit_decodes_no_cached_machine_code(warm, monkeypatch):
    engine, sources, _victim = warm
    decode = Counter(incr_state.decode_machine_routines)
    monkeypatch.setattr(incr_state, "decode_machine_routines", decode)
    result, report = engine.build(sources)
    assert report.cmo_reused and report.cmo_reoptimized
    assert decode.calls == 0
    clean = Compiler(CompilerOptions(opt_level=4)).build(sources)
    assert encode_executable(result.executable) == (
        encode_executable(clean.executable)
    )


def test_an_edit_summarises_only_the_recompiled_object(warm, monkeypatch):
    engine, sources, victim = warm
    summarise = Counter(ModuleSummary.from_module)
    monkeypatch.setattr(ModuleSummary, "from_module", staticmethod(summarise))
    result, report = engine.build(sources)
    assert report.recompiled == [victim]
    assert summarise.calls == 1
    assert result.incr_report.changed_modules == [victim]


def test_replay_expands_nothing_outside_the_import_closure(warm, monkeypatch):
    engine, sources, _victim = warm
    touched = set()
    real_replay = hlo_driver.replay_plan

    def watched_replay(plan, scope, loader, *rest):
        real_touch = loader.touch

        def touch(pool):
            if pool.kind == KIND_IR:
                touched.add(pool.name)
            return real_touch(pool)

        loader.touch = touch
        try:
            return real_replay(plan, scope, loader, *rest)
        finally:
            del loader.touch

    monkeypatch.setattr(hlo_driver, "replay_plan", watched_replay)
    result, _report = engine.build(sources)
    hlo = result.hlo_result
    assert hlo.reused_modules
    compiled = set(hlo.compiled_routines())
    need = hlo.plan.import_closure()
    closure = set().union(*(need(name) for name in compiled))
    assert touched, "the plan replayed nothing: the guard guards nothing"
    assert touched <= compiled | closure
    # The edit leaves most of the program alone, and so does replay.
    reused_routines = set(hlo.unit.routine_names()) - compiled
    assert reused_routines - closure
    assert not touched & (reused_routines - closure)


def test_one_callgraph_build_costs_one_scc_pass(warm, monkeypatch):
    engine, sources, _victim = warm
    condense = Counter(callgraph.strongly_connected_components)
    monkeypatch.setattr(callgraph, "strongly_connected_components", condense)
    build = Counter(hlo_driver.CmoUnit.build_callgraph)
    monkeypatch.setattr(hlo_driver.CmoUnit, "build_callgraph",
                        lambda *args: build(*args))
    result, _report = engine.build(sources)
    assert result.hlo_result.inline_stats.performed
    assert 1 <= condense.calls <= build.calls

    graph = result.hlo_result.unit.build_callgraph(
        result.hlo_result.thin_facts
    )
    condense.calls = 0
    for _ in range(2):
        for name in graph.nodes:
            graph.is_recursive(name)
    assert condense.calls == 1
