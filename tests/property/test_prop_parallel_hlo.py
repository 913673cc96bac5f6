"""Property tests for the partitioned parallel LTRANS backend.

The invariant: for ANY synthetic program, a partitioned +O4 build
produces an image byte-identical to the serial build -- on BOTH local
transports (the link process at several partition counts, worker
processes at several job counts), with and without summary-based
incremental CMO.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.driver.build import BuildEngine
from repro.driver.compiler import Compiler
from repro.driver.options import CompilerOptions
from repro.linker.objects import encode_executable
from repro.synth import WorkloadConfig, generate

#: Option sets per local transport: the in-process one has no worker
#: count to vary, so it varies the partition count instead.
BACKENDS = {
    "in-process": [dict(hlo_partitions=n) for n in (1, 3, 8)],
    "processes": [dict(hlo_jobs=jobs, hlo_backend="processes")
                  for jobs in (1, 2, 4)],
}


def small_app(seed, n_modules=5):
    config = WorkloadConfig(
        "par%d" % seed,
        n_modules=n_modules,
        routines_per_module=3,
        n_features=2,
        dispatch_count=40,
        input_size=16,
        seed=seed,
    )
    return generate(config)


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n_modules=st.integers(min_value=2, max_value=7),
)
@settings(deadline=None, max_examples=6,
          suppress_health_check=[HealthCheck.too_slow])
def test_parallel_image_matches_serial(seed, n_modules):
    sources = small_app(seed, n_modules).sources
    serial = Compiler(CompilerOptions(opt_level=4)).build(sources)
    reference = encode_executable(serial.executable)
    for backend, shapes in BACKENDS.items():
        for shape in shapes:
            build = Compiler(
                CompilerOptions(opt_level=4, **shape)
            ).build(sources)
            assert encode_executable(build.executable) == reference, (
                "%r (%s) diverged from serial" % (shape, backend)
            )


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(deadline=None, max_examples=4,
          suppress_health_check=[HealthCheck.too_slow])
def test_parallel_composes_with_incremental(seed):
    app = small_app(seed)
    serial_engine = BuildEngine(CompilerOptions(opt_level=4),
                                incremental=True)
    serial, serial_report = serial_engine.build(app.sources)
    reference = encode_executable(serial.executable)

    for backend, shapes in BACKENDS.items():
        for shape in shapes[1:]:
            engine = BuildEngine(
                CompilerOptions(opt_level=4, **shape),
                incremental=True,
            )
            build, report = engine.build(app.sources)
            assert encode_executable(build.executable) == reference
            # The knob must not leak into reuse decisions either.
            assert report.cmo_reused == serial_report.cmo_reused
            assert report.cmo_reoptimized == serial_report.cmo_reoptimized

            # A no-op parallel rebuild still reuses everything.
            again, report2 = engine.build(app.sources)
            assert report2.cmo_reoptimized == []
            assert encode_executable(again.executable) == reference


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(deadline=None, max_examples=3,
          suppress_health_check=[HealthCheck.too_slow])
def test_summary_wpa_composes_with_incremental(seed):
    """Incremental rebuilds (cold, warm no-op, and changed-module) stay
    byte-identical to clean non-incremental builds of the same
    sources, and the facts cache never perturbs reuse."""
    app = small_app(seed)
    reference = encode_executable(
        Compiler(CompilerOptions(opt_level=4)).build(app.sources).executable
    )
    engine = BuildEngine(
        CompilerOptions(opt_level=4, hlo_partitions=8),
        incremental=True,
    )
    cold, _report = engine.build(app.sources)
    assert encode_executable(cold.executable) == reference

    warm, warm_report = engine.build(app.sources)
    assert warm_report.cmo_reoptimized == []
    assert encode_executable(warm.executable) == reference

    # Touch one module; the changed module re-extracts its facts, the
    # rest feed WPA from the cache -- and the image still matches a
    # from-scratch build of the changed sources.
    changed_name = sorted(app.sources)[0]
    changed = dict(app.sources)
    changed[changed_name] = (
        app.sources[changed_name]
        + "\nfunc extra_%d(x) { return x + %d; }\n"
        % (seed % 97, seed % 11)
    )
    changed_reference = encode_executable(
        Compiler(CompilerOptions(opt_level=4)).build(changed).executable
    )
    rebuilt, _report = engine.build(changed)
    assert encode_executable(rebuilt.executable) == changed_reference
