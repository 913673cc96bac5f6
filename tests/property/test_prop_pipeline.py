"""Property-based differential tests: interpreter vs compiled VM code.

The generator produces arbitrary (terminating) applications from a
seed; for every one, the interpreter and the fully compiled executable
must agree at every optimization level.  This is the system's strongest
invariant: a miscompile anywhere in HLO/LLO/linker breaks it.
"""

import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.driver.build import BuildEngine
from repro.driver.compiler import Compiler, train
from repro.driver.options import CompilerOptions
from repro.frontend import compile_sources
from repro.interp import run_program
from repro.linker.objects import encode_executable
from repro.naim.config import NaimConfig, NaimLevel
from repro.synth import WorkloadConfig, generate
from tests.incr.synth_edits import (
    add_statement,
    bump,
    bump_call_argument,
    bump_global_initializer,
    delete_uncalled_routine,
)

_SETTINGS = dict(
    deadline=None,
    max_examples=12,
    suppress_health_check=[HealthCheck.too_slow],
)


def small_app(seed, n_modules=5, features=2):
    config = WorkloadConfig(
        "prop%d" % seed,
        n_modules=n_modules,
        routines_per_module=3,
        n_features=features,
        dispatch_count=40,
        input_size=24,
        seed=seed,
    )
    return generate(config)


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(**_SETTINGS)
def test_o2_matches_interpreter(seed):
    app = small_app(seed)
    inputs = app.make_input(seed=seed + 1)
    expected = run_program(
        compile_sources(app.sources), inputs=inputs
    ).value
    build = Compiler(CompilerOptions(opt_level=2)).build(app.sources)
    assert build.run(inputs=inputs).value == expected


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(**_SETTINGS)
def test_o0_matches_interpreter(seed):
    app = small_app(seed)
    inputs = app.make_input(seed=seed + 1)
    expected = run_program(
        compile_sources(app.sources), inputs=inputs
    ).value
    build = Compiler(CompilerOptions(opt_level=0)).build(app.sources)
    assert build.run(inputs=inputs).value == expected


#: How the LTRANS body is dispatched: in the link process, over three
#: in-process partitions, in the link process with NAIM offloading
#: every pool it can, and incrementally: a build on a state dir, then a
#: relink after one edit of each kind :func:`_edits` makes.
LTRANS_SHAPES = {
    "serial": {},
    "partitions": {"hlo_partitions": 3},
    "offload": {"naim": NaimConfig.pinned(NaimLevel.OFFLOAD)},
    "incremental": {},
}


def _edits(seed):
    """One edit of each kind in ``tests/incr/synth_edits.py``, each on
    the module ``seed`` picks."""

    def on_module(edit):
        def apply(sources):
            names = sorted(name for name in sources if name != "main")
            name = names[seed % len(names)]
            sources[name] = edit(sources, name)
        return apply

    return [
        on_module(lambda sources, name: bump(sources[name], seed)),
        on_module(lambda sources, name:
                  bump_call_argument(sources[name], seed)),
        on_module(lambda sources, name: add_statement(sources[name], seed)),
        on_module(lambda sources, name:
                  bump_global_initializer(sources[name], seed)),
        on_module(lambda sources, name:
                  delete_uncalled_routine(sources, name, seed)),
    ]


def _interpreted(sources, inputs):
    return run_program(compile_sources(sources), inputs=inputs).value


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    shape=st.sampled_from(sorted(LTRANS_SHAPES)),
)
@example(seed=11, shape="incremental")
@settings(deadline=None, max_examples=8,
          suppress_health_check=[HealthCheck.too_slow])
def test_cmo_pbo_matches_interpreter(seed, shape):
    app = small_app(seed)
    train_inputs = app.make_input(seed=seed + 1)
    bench_inputs = app.make_input(seed=seed + 2)
    profile = train(app.sources, [train_inputs])
    options = CompilerOptions(opt_level=4, pbo=True, **LTRANS_SHAPES[shape])
    if shape != "incremental":
        build = Compiler(options).build(app.sources, profile_db=profile)
        assert build.run(inputs=bench_inputs).value == (
            _interpreted(app.sources, bench_inputs)
        )
        return
    # After every relink the image runs like the interpreter on the
    # edited program, and it is the clean build's image.
    sources = dict(app.sources)
    with tempfile.TemporaryDirectory() as state_dir:
        engine = BuildEngine(options, state_dir=state_dir)
        try:
            for edit in [None] + _edits(seed):
                if edit is not None:
                    edit(sources)
                build, _report = engine.build(sources, profile_db=profile)
                assert build.run(inputs=bench_inputs).value == (
                    _interpreted(sources, bench_inputs)
                )
                clean = Compiler(options).build(sources, profile_db=profile)
                assert encode_executable(build.executable) == (
                    encode_executable(clean.executable)
                )
        finally:
            engine.incr_state.close()


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    percent=st.sampled_from([5.0, 30.0, 80.0]),
)
@settings(deadline=None, max_examples=6,
          suppress_health_check=[HealthCheck.too_slow])
def test_selective_cmo_matches_interpreter(seed, percent):
    app = small_app(seed)
    inputs = app.make_input(seed=seed + 1)
    expected = run_program(
        compile_sources(app.sources), inputs=inputs
    ).value
    profile = train(app.sources, [inputs])
    build = Compiler(
        CompilerOptions(opt_level=4, pbo=True, selectivity_percent=percent)
    ).build(app.sources, profile_db=profile)
    assert build.run(inputs=inputs).value == expected
