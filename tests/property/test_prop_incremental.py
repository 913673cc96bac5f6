"""Property tests for incremental CMO.

The invariant: for ANY single-module edit, an incremental +O4 rebuild
produces an image byte-identical to a clean build of the edited
sources, the edited module is re-optimized, and a subsequent no-op
rebuild reuses every module's cached codegen.
"""

from __future__ import annotations

import contextlib
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.driver.build import BuildEngine
from repro.driver.compiler import Compiler
from repro.driver.options import CompilerOptions
from repro.ir.symbols import ProgramSymbolTable
from repro.linker.objects import encode_executable
from repro.llo.driver import LowLevelOptimizer
from repro.naim.compaction import compact_routine
from repro.synth import WorkloadConfig, generate


def small_app(seed):
    config = WorkloadConfig(
        "incr%d" % seed,
        n_modules=5,
        routines_per_module=3,
        n_features=2,
        dispatch_count=40,
        input_size=16,
        seed=seed,
    )
    return generate(config)


def perturb(source):
    """Bump the first multiplier constant in a synthetic routine body;
    returns None when the module has no such site."""
    edited, count = re.subn(
        r"\* (\d+) \+",
        lambda m: "* %d +" % (int(m.group(1)) + 1),
        source,
        count=1,
    )
    return edited if count else None


@contextlib.contextmanager
def bodies_entering_codegen():
    """Routine name -> canonical compact bytes of the IL each
    ``compile_routine`` call of the enclosed builds was handed."""
    bodies = {}
    compile_routine = LowLevelOptimizer.compile_routine

    def recording(self, routine, view=None):
        bodies[routine.name] = compact_routine(routine, ProgramSymbolTable())
        return compile_routine(self, routine, view)

    LowLevelOptimizer.compile_routine = recording
    try:
        yield bodies
    finally:
        LowLevelOptimizer.compile_routine = compile_routine


def clean_image(sources):
    build = Compiler(CompilerOptions(opt_level=4)).build(sources)
    return build, encode_executable(build.executable)


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    victim=st.integers(min_value=0, max_value=10**6),
)
@settings(deadline=None, max_examples=6,
          suppress_health_check=[HealthCheck.too_slow])
def test_single_module_edit_matches_clean_build(seed, victim):
    app = small_app(seed)
    engine = BuildEngine(CompilerOptions(opt_level=4), incremental=True)
    first, _ = engine.build(app.sources)
    original_image = encode_executable(first.executable)

    module_names = sorted(app.sources)
    edited_name = module_names[victim % len(module_names)]
    edited_source = perturb(app.sources[edited_name])
    if edited_source is None:
        return  # nothing to perturb in this module; property holds trivially
    edited = dict(app.sources)
    edited[edited_name] = edited_source

    result, _ = engine.build(edited)
    _clean_build, image = clean_image(edited)
    assert encode_executable(result.executable) == image
    # Either the edited module re-optimized, or the edit hit code the
    # whole-program phases discard (dead routine), in which case exact
    # reuse keys legitimately keep everything -- and the image proves
    # it by matching the original build bit for bit.
    incr = result.incr_report
    assert edited_name in incr.reoptimized or image == original_image
    assert result.incr_report.changed_modules == [edited_name]

    # Untouched modules outside the dirty closure kept their codegen.
    # The edited module itself may appear in incr_report.reused in the
    # dead-code case above (its post-inline key did not change).
    assert set(incr.reused).isdisjoint(set(incr.reoptimized))
    if image != original_image:
        assert edited_name not in incr.reused

    # A no-op rebuild of the edited program reuses everything.
    again, _ = engine.build(edited)
    assert again.incr_report.reoptimized == []
    assert encode_executable(again.executable) == image


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(deadline=None, max_examples=4,
          suppress_health_check=[HealthCheck.too_slow])
def test_rebuilt_image_behaves_like_clean_build(seed):
    app = small_app(seed)
    edited_name = sorted(app.sources)[seed % len(app.sources)]
    edited_source = perturb(app.sources[edited_name])
    if edited_source is None:
        return
    edited = dict(app.sources)
    edited[edited_name] = edited_source

    engine = BuildEngine(CompilerOptions(opt_level=4), incremental=True)
    engine.build(app.sources)
    result, _report = engine.build(edited)

    clean_build, _image = clean_image(edited)
    inputs = app.make_input(seed=seed + 1)
    assert result.run(inputs=inputs).value == (
        clean_build.run(inputs=inputs).value
    )


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    edits=st.lists(st.integers(min_value=0, max_value=10**6),
                   min_size=1, max_size=3),
)
@settings(deadline=None, max_examples=6,
          suppress_health_check=[HealthCheck.too_slow])
def test_scoped_replay_compiles_what_a_whole_unit_replay_would(seed, edits):
    """A rebuild replays the WPA plan only over what it will compile
    (closed under the plan's imports); a clean build replays it over the
    whole unit.  Every routine the rebuild compiles must come out of
    replay + scalar with the same compact bytes either way.  Compiled
    bodies are released, so they are read where they are last alive:
    on their way into codegen."""
    app = small_app(seed)
    engine = BuildEngine(CompilerOptions(opt_level=4), incremental=True)
    engine.build(app.sources)
    sources = dict(app.sources)
    module_names = sorted(sources)
    for victim in edits:
        name = module_names[victim % len(module_names)]
        sources[name] = perturb(sources[name]) or sources[name]
        with bodies_entering_codegen() as scoped_bodies:
            result, _report = engine.build(sources)
        with bodies_entering_codegen() as whole_bodies:
            whole = clean_image(sources)[0].hlo_result
        scoped = result.hlo_result
        assert scoped.unit.routine_names() == whole.unit.routine_names()
        assert sorted(scoped_bodies) == sorted(scoped.compiled_routines())
        for routine_name, body in scoped_bodies.items():
            assert body == whole_bodies[routine_name], routine_name
