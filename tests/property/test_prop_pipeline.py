"""Property-based differential tests: interpreter vs compiled VM code.

The generator produces arbitrary (terminating) applications from a
seed; for every one, the interpreter and the fully compiled executable
must agree at every optimization level.  This is the system's strongest
invariant: a miscompile anywhere in HLO/LLO/linker breaks it.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.driver.compiler import Compiler, train
from repro.driver.options import CompilerOptions
from repro.frontend import compile_sources
from repro.interp import run_program
from repro.naim.config import NaimConfig, NaimLevel
from repro.synth import WorkloadConfig, generate

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
#: in-process partitions, and in the link process with NAIM offloading
#: every pool it can.
LTRANS_SHAPES = {
    "serial": {},
    "partitions": {"hlo_partitions": 3},
    "offload": {"naim": NaimConfig.pinned(NaimLevel.OFFLOAD)},
}


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    shape=st.sampled_from(sorted(LTRANS_SHAPES)),
)
@settings(deadline=None, max_examples=8,
          suppress_health_check=[HealthCheck.too_slow])
def test_cmo_pbo_matches_interpreter(seed, shape):
    app = small_app(seed)
    train_inputs = app.make_input(seed=seed + 1)
    bench_inputs = app.make_input(seed=seed + 2)
    expected = run_program(
        compile_sources(app.sources), inputs=bench_inputs
    ).value
    profile = train(app.sources, [train_inputs])
    build = Compiler(
        CompilerOptions(opt_level=4, pbo=True, **LTRANS_SHAPES[shape])
    ).build(app.sources, profile_db=profile)
    assert build.run(inputs=bench_inputs).value == expected


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
