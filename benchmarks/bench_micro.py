"""Microbenchmarks for the pipeline's hot components.

These are conventional pytest-benchmark timings (multiple rounds) for
the pieces whose speed determines overall compile time: compaction,
the scalar pipeline, inlining, code generation and the VM itself.

Run: ``pytest benchmarks/bench_micro.py --benchmark-only``
"""

import os
import sys

import pytest

from repro.driver.compiler import Compiler, train
from repro.driver.options import CompilerOptions
from repro.frontend import compile_sources
from repro.hlo.analysis.modref import ModRefAnalysis
from repro.hlo.driver import standard_pipeline
from repro.hlo.passes import OptContext
from repro.hlo.profile_view import ProfileView
from repro.interp import run_program
from repro.llo.driver import LloOptions, LowLevelOptimizer
from repro.naim import Loader, NaimConfig, NaimLevel, Repository
from repro.naim.compaction import compact_routine, uncompact_routine
from repro.naim.intern import InternPool
from repro.synth import WorkloadConfig, generate

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests", "naim"))

from reference_codec import (  # noqa: E402
    compact_routine_reference,
    uncompact_routine_reference,
)


@pytest.fixture(scope="module")
def app():
    return generate(
        WorkloadConfig("micro", n_modules=12, routines_per_module=6,
                       n_features=4, dispatch_count=150, seed=9)
    )


@pytest.fixture(scope="module")
def program(app):
    return compile_sources(app.sources)


@pytest.fixture(scope="module")
def profile(app):
    return train(app.sources, [app.make_input(seed=1)])


def test_frontend_throughput(benchmark, app):
    benchmark(lambda: compile_sources(app.sources))


def test_llo_throughput(benchmark, program):
    """The code generator over every routine of the program at ``+O2``
    with profile-guided allocation and layout (static estimates)."""
    routines = program.all_routines()
    views = [ProfileView.static_estimate(routine) for routine in routines]

    def compile_all():
        llo = LowLevelOptimizer(LloOptions(opt_level=2, use_profile=True))
        for routine, view in zip(routines, views):
            llo.compile_routine(routine, view)
        return llo.stats.instructions

    assert benchmark(compile_all) > 0


def test_compaction_round_trip(benchmark, program):
    symtab = program.symtab
    routines = program.all_routines()

    def round_trip():
        for routine in routines:
            uncompact_routine(compact_routine(routine, symtab), symtab)

    benchmark(round_trip)


def test_codec_reference_round_trip(benchmark, program):
    """Reference per-field codec: the baseline the batched one beats."""
    symtab = program.symtab
    routines = program.all_routines()

    def round_trip():
        for routine in routines:
            uncompact_routine_reference(
                compact_routine_reference(routine, symtab), symtab
            )

    benchmark(round_trip)


def test_codec_batched_decode(benchmark, program):
    """Decode-side hot loop alone (interned, eager)."""
    symtab = program.symtab
    blobs = [compact_routine(routine, symtab)
             for routine in program.all_routines()]
    intern = InternPool()

    def decode_all():
        for blob in blobs:
            uncompact_routine(blob, symtab, intern=intern)

    benchmark(decode_all)


def test_scalar_pipeline(benchmark, app):
    def optimize_all():
        program = compile_sources(app.sources)
        ctx = OptContext(program.symtab)
        ctx.modref = ModRefAnalysis.analyze(program.all_routines())
        pipeline = standard_pipeline()
        for routine in program.all_routines():
            pipeline.run_routine(routine, ctx)

    benchmark.pedantic(optimize_all, rounds=3, iterations=1)


def test_full_o2_build(benchmark, app):
    compiler = Compiler(CompilerOptions(opt_level=2))
    benchmark.pedantic(
        lambda: compiler.build(app.sources), rounds=3, iterations=1
    )


def test_full_cmo_build(benchmark, app, profile):
    compiler = Compiler(CompilerOptions(opt_level=4, pbo=True))
    benchmark.pedantic(
        lambda: compiler.build(app.sources, profile_db=profile),
        rounds=3,
        iterations=1,
    )


def test_loader_eviction_churn(benchmark, program):
    """LRU enforcement under heavy touch traffic.

    A small cache over many pools, touched round-robin so every touch
    evicts: the heap-based LRU pays O(log n) per eviction instead of
    re-sorting the whole pool table on every enforcement.
    """
    symtab = program.symtab
    routines = program.all_routines()

    def churn():
        loader = Loader(
            NaimConfig.pinned(NaimLevel.IR_COMPACT, cache_pools=8),
            symtab,
            repository=Repository(in_memory=True),
        )
        handles = [loader.register_routine(r) for r in routines]
        for _ in range(6):
            for handle in handles:
                handle.get()
        return loader.stats.compactions

    compactions = benchmark(churn)
    assert compactions > len(routines)


def test_vm_throughput(benchmark, app, profile):
    build = Compiler(
        CompilerOptions(opt_level=4, pbo=True)
    ).build(app.sources, profile_db=profile)
    inputs = app.make_input(seed=2)
    benchmark.pedantic(
        lambda: build.run(inputs=inputs), rounds=3, iterations=1
    )


def test_interpreter_throughput(benchmark, program, app):
    inputs = app.make_input(seed=2)
    benchmark.pedantic(
        lambda: run_program(program, inputs=inputs), rounds=3, iterations=1
    )
