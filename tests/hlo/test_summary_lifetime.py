"""The summary graph lives as long as the WPA that reads it.

The WPA decides from routine facts and the call graph built from them;
LTRANS (plan replay, the scalar pipeline, codegen) reads bodies, the
plan, views and mod/ref.  So when phase 5 starts -- serially in
``run_scalar_phase`` or partitioned in ``PartitionRunner.run`` -- the
accountant charges neither ``summaries`` nor ``callgraph``, and no facts
or call graph of the link are alive.  An incremental link that applies
the stored outcome keeps its facts where they already live, in the
state's ``applied_wpa`` memo, uncharged.  The program symbol table, the
clones' symbols included, is charged at its size.  The HLO peak a build
reports is its link accountant's peak, partitioned or not.
"""

from __future__ import annotations

import gc
import weakref

import pytest

import repro.hlo.driver as hlo_driver
from repro.driver.build import BuildEngine
from repro.driver.compiler import Compiler
from repro.driver.options import CompilerOptions
from repro.frontend import compile_sources
from repro.incr.summary import RoutineFacts
from repro.naim.config import NaimConfig, NaimLevel
from repro.naim.memory import program_symtab_bytes
from repro.part.runner import PartitionRunner
from repro.synth import WorkloadConfig, generate

OFFLOAD = NaimConfig.pinned(NaimLevel.OFFLOAD, cache_pools=4)

SHAPES = [
    pytest.param({}, id="serial"),
    pytest.param({"hlo_partitions": 8}, id="partitioned"),
]


def _sources(n_modules):
    """``benchmarks/bench_thin_wpa.py``'s program at ``n_modules``."""
    return dict(generate(WorkloadConfig(
        "thinwpa%d" % n_modules, n_modules=n_modules, routines_per_module=6,
        n_features=4, dispatch_count=120, seed=41,
    )).sources)


def _summary_graph_charge(hlo_result):
    """The ``summaries`` and ``callgraph`` bytes still charged."""
    accountant = hlo_result.accountant
    return (accountant.usage("global", "summaries")
            + accountant.usage("global", "callgraph"))


class Watch:
    """Weak references to every facts object and call graph a link
    makes, and what of them was alive and charged at each LTRANS
    entry: ``(entry, how many were alive, summary graph charge)``; and
    the symbol table's ``(charge, size)`` there."""

    def __init__(self) -> None:
        self.refs = []
        self.entries = []
        self.symtabs = []

    def add(self, obj) -> None:
        self.refs.append(weakref.ref(obj))

    def live(self):
        gc.collect()
        return [ref() for ref in self.refs if ref() is not None]

    def enter(self, entry, hlo_result) -> None:
        self.entries.append((entry, len(self.live()),
                             _summary_graph_charge(hlo_result)))
        self.symtabs.append((
            hlo_result.accountant.usage("global", "program_symtab"),
            program_symtab_bytes(hlo_result.program.symtab),
        ))


@pytest.fixture
def watch(monkeypatch):
    watch = Watch()
    real_init = RoutineFacts.__init__
    real_build = hlo_driver.build_callgraph
    real_scalar = hlo_driver.HighLevelOptimizer.run_scalar_phase
    real_run = PartitionRunner.run

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        watch.add(self)

    def build_callgraph(facts_by_name):
        graph = real_build(facts_by_name)
        watch.add(graph)
        return graph

    def run_scalar_phase(self, result, *args, **kwargs):
        watch.enter("run_scalar_phase", result)
        return real_scalar(self, result, *args, **kwargs)

    def run(self, partitions):
        watch.enter("PartitionRunner.run", self.hlo_result)
        return real_run(self, partitions)

    monkeypatch.setattr(RoutineFacts, "__init__", init)
    monkeypatch.setattr(hlo_driver, "build_callgraph", build_callgraph)
    monkeypatch.setattr(hlo_driver.HighLevelOptimizer, "run_scalar_phase",
                        run_scalar_phase)
    monkeypatch.setattr(PartitionRunner, "run", run)
    return watch


@pytest.mark.parametrize("shape", SHAPES)
def test_ltrans_starts_without_the_summary_graph(watch, shape):
    build = Compiler(CompilerOptions(opt_level=4, naim=OFFLOAD, **shape)) \
        .build(_sources(6))
    assert build.hlo_result.inline_stats.performed
    assert build.hlo_result.clones
    entry = "PartitionRunner.run" if shape else "run_scalar_phase"
    assert watch.entries == [(entry, 0, 0)]
    assert len(watch.refs) > len(build.hlo_result.unit.routine_names())


@pytest.mark.parametrize("shape", SHAPES)
def test_ltrans_starts_with_the_clones_symbols_charged(watch, shape):
    build = Compiler(CompilerOptions(opt_level=4, naim=OFFLOAD, **shape)) \
        .build(_sources(4))
    assert build.hlo_result.clones
    [(charged, size)] = watch.symtabs
    assert charged == size


def test_optimize_returns_without_the_summary_graph(watch):
    program = compile_sources(_sources(4))
    result = hlo_driver.HighLevelOptimizer(program).optimize()
    assert watch.entries == [("run_scalar_phase", 0, 0)]
    assert watch.refs and not watch.live()
    assert _summary_graph_charge(result) == 0
    assert not hasattr(result, "thin_facts")


def test_an_applied_outcome_keeps_its_facts_in_the_state(watch):
    sources = _sources(4)
    engine = BuildEngine(CompilerOptions(opt_level=4), incremental=True)
    engine.build(sources)
    engine.build(sources)
    state = engine.incr_state
    kept = state.applied_wpa.value
    assert kept is not None
    facts = kept.facts
    del watch.refs[:], watch.entries[:], watch.symtabs[:]

    result, _report = engine.build(sources)
    assert result.incr_report.wpa == "reused"
    # The charge ends, nothing the link made is alive, and the memo's
    # facts are kept as they were.
    assert watch.entries == [("run_scalar_phase", 0, 0)]
    assert state.applied_wpa.value is kept and kept.facts is facts
    # Registering the stored clones charges their symbols too.
    [(charged, size)] = watch.symtabs
    assert charged == size


@pytest.mark.parametrize("shape", SHAPES)
def test_the_hlo_peak_is_the_link_accountants(shape):
    build = Compiler(CompilerOptions(opt_level=4, naim=OFFLOAD, **shape)) \
        .build(_sources(16))
    hlo = build.hlo_result
    # LTRANS rises above the WPA's peak, so the WPA peak binding does
    # not make this pass.
    assert hlo.peak_bytes > hlo.wpa_peak_bytes
    assert hlo.peak_bytes == build.accountant.peak
