"""Differential spec: the scheduled scalar pipeline against the
exhaustive loop it replaced (``tests/hlo/reference_pipeline.py``).

The scheduler skips a pass when no kind of change that enables it has
been reported since the pass last ran.  Sound declarations make that
invisible: on post-inline bodies of generated applications, at every
option shape, both schedules must leave every routine instruction for
instruction the same, count the same changes per pass, and account for
the same executions (what one skipped, the other ran).
"""

import os
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "hlo"))

from reference_pipeline import ReferencePipeline  # noqa: E402
from repro.driver.compiler import train  # noqa: E402
from repro.frontend import compile_sources  # noqa: E402
from repro.hlo.driver import HighLevelOptimizer, standard_pipeline  # noqa: E402
from repro.hlo.options import HloOptions  # noqa: E402
from repro.hlo.passes import PassPipeline  # noqa: E402
from repro.hlo.thin import replay_plan  # noqa: E402
from repro.synth import WorkloadConfig, generate  # noqa: E402

_ABLATIONS = sorted(
    name for name in vars(HloOptions()) if name.endswith("_enabled")
)
#: (label, HloOptions overrides, with profile)
SHAPES = [("+O4", {}, False), ("+O4 +P", {}, True)] + [
    ("+O4 %s=False" % name, {name: False}, False) for name in _ABLATIONS
]


def optimized(app, overrides, profile, make_pipeline):
    """WPA, plan replay, then ``make_pipeline`` over the scalar
    worklist: routine name -> [(label, instrs)], and the stats."""
    options = HloOptions(**overrides)
    hlo = HighLevelOptimizer(
        compile_sources(app.sources), options, profile_db=profile
    )
    result = hlo.optimize(run_scalar=False)
    unit, ctx = result.unit, result.ctx
    replay_plan(
        result.plan, set(unit.routine_names()), unit.loader,
        unit.routine_handles, ctx.views, options,
    )
    result.mark_plan_replayed()
    pipeline = make_pipeline(standard_pipeline().passes)
    bodies = {}
    for name in result.scalar_worklist():
        routine = unit.routine(name)
        pipeline.run_routine(routine, ctx)
        bodies[name] = [
            (block.label, list(block.instrs)) for block in routine.blocks
        ]
    return bodies, ctx.stats


def total(counter):
    return sum(counter.values())


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    shape=st.sampled_from(SHAPES),
)
@settings(deadline=None, max_examples=30,
          suppress_health_check=[HealthCheck.too_slow])
def test_scheduled_pipeline_matches_the_exhaustive_one(seed, shape):
    label, overrides, with_profile = shape
    app = generate(WorkloadConfig(
        "sched%d" % seed, n_modules=4, routines_per_module=3, n_features=2,
        dispatch_count=30, input_size=16, seed=seed,
    ))
    profile = (
        train(app.sources, [app.make_input(seed=seed + 1)])
        if with_profile else None
    )
    scheduled, stats = optimized(app, overrides, profile, PassPipeline)
    exhaustive, spec = optimized(app, overrides, profile, ReferencePipeline)
    assert list(scheduled) == list(exhaustive), label
    for name, body in exhaustive.items():
        assert scheduled[name] == body, (label, name)
    assert stats.counts == spec.counts, label
    assert stats.capped == spec.capped, label
    # Every execution the spec made was either made or skipped here.
    assert total(stats.runs) + total(stats.skips) == total(spec.runs), label
    assert total(stats.runs) <= total(spec.runs), label
