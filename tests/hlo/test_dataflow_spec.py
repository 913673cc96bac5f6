"""Differential spec: the sparse/bitmask dataflow kernels in ``src/repro``
against the dense code they replaced (``reference_dataflow.py``).

The kernels must compute the same facts and make the same decisions on
every routine shape the pipeline meets -- frontend output, post-inline
bodies and every intermediate state between two scalar passes.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_dataflow as reference
from repro.frontend import compile_source, compile_sources
from repro.hlo.analysis.liveness import liveness
from repro.hlo.analysis.modref import ModRefAnalysis
from repro.hlo.driver import HighLevelOptimizer, standard_pipeline
from repro.hlo.options import HloOptions
from repro.hlo.passes import OptContext
from repro.hlo.thin import replay_plan
from repro.hlo.transforms import constprop
from repro.hlo.transforms.dce import DeadCodeElimination
from repro.ir import Opcode
from repro.ir.liveness import regs_in
from repro.synth import WorkloadConfig, generate

_SETTINGS = dict(
    deadline=None,
    max_examples=6,
    suppress_health_check=[HealthCheck.too_slow],
)


def _sources(seed):
    return generate(WorkloadConfig(
        "spec%d" % seed, n_modules=4, routines_per_module=3, n_features=2,
        dispatch_count=30, input_size=16, seed=seed,
    )).sources


def assert_constants_agree(routine, ctx):
    dense = reference.compute_block_inputs(routine, ctx)
    sparse = constprop.compute_block_inputs(routine, ctx)
    assert list(sparse) == list(dense)  # same blocks, same (RPO) order
    for label, state in dense.items():
        assert sparse[label] == reference.constants_of(state), label


def assert_liveness_agrees(routine):
    routine.invalidate()
    info = liveness(routine)
    expected = reference.liveness(routine)
    for masks, sets in zip(
        (info.live_in, info.live_out, info.use, info.defs), expected
    ):
        assert set(masks) == set(sets)
        for label, mask in masks.items():
            assert regs_in(mask) == sorted(sets[label]), label


def dce_decisions_from_sets(routine, ctx):
    """What DCE removes, decided from the reference's per-instruction
    sets: ``{label: [indices removed]}``."""
    modref = ctx.modref
    removed = {}
    for block in routine.blocks:
        after = reference.live_regs_after(routine, block.label)
        for index, instr in enumerate(block.instrs):
            if instr.is_terminator():
                continue
            pure_call = (
                instr.op is Opcode.CALL and modref is not None
                and modref.for_routine(instr.sym).is_pure()
            )
            if instr.op is Opcode.MOV and instr.dst == instr.a:
                dead = True
            elif instr.dst is not None and instr.dst not in after[index]:
                dead = not instr.has_side_effects() or pure_call
            else:
                dead = instr.dst is None and pure_call
            if dead:
                removed.setdefault(block.label, []).append(index)
    return removed


def assert_dce_agrees(routine, ctx):
    expected = dce_decisions_from_sets(routine, ctx)
    before = {b.label: list(b.instrs) for b in routine.blocks}
    clone = routine.copy()
    changed = DeadCodeElimination().run(clone, ctx)
    assert bool(changed) == bool(expected)
    for block in clone.blocks:
        gone = set(expected.get(block.label, ()))
        kept = [
            instr for index, instr in enumerate(before[block.label])
            if index not in gone
        ]
        assert block.instrs == kept, block.label


def assert_kernels_agree(routine, ctx):
    assert_constants_agree(routine, ctx)
    assert_liveness_agrees(routine)
    assert_dce_agrees(routine, ctx)


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(**_SETTINGS)
def test_kernels_match_reference_on_frontend_output(seed):
    program = compile_sources(_sources(seed))
    ctx = OptContext(program.symtab, HloOptions())
    ctx.modref = ModRefAnalysis.analyze(program.all_routines())
    for routine in program.all_routines():
        assert_kernels_agree(routine, ctx)


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(**_SETTINGS)
def test_kernels_match_reference_through_the_pipeline(seed):
    """Post-inline bodies with IPCP facts published, then before every
    pass of the scalar pipeline until it goes quiet."""
    options = HloOptions()
    hlo = HighLevelOptimizer(compile_sources(_sources(seed)), options)
    result = hlo.optimize(run_scalar=False)
    unit, ctx = result.unit, result.ctx
    replay_plan(
        result.plan, set(unit.routine_names()), unit.loader,
        unit.routine_handles, ctx.views, options,
    )
    result.mark_plan_replayed()
    passes = standard_pipeline().passes
    for name in result.scalar_worklist():
        routine = unit.routine(name)
        for _ in range(options.max_pass_iterations):
            changed = False
            for phase in passes:
                assert_kernels_agree(routine, ctx)
                changed |= phase.run(routine, ctx)
            if not changed:
                break


LOOP_SRC = """
global g = 5;
func f(n) {
    var k = 7;
    var s = 0;
    for (var i = 0; i < n; i = i + 1) {
        if (i % 2 == 0) { s = s + k; } else { s = s + g; }
    }
    return s + k;
}
"""


@pytest.mark.parametrize("max_sweeps", [1, 2, 3, 50])
def test_sweep_bound_trips_on_the_same_inputs(monkeypatch, max_sweeps):
    """The bail-out returns "no information" from both solvers, after
    the same number of sweeps."""
    module = compile_source(LOOP_SRC, "m")
    routine = module.routines["f"]
    ctx = OptContext(compile_sources({"m": LOOP_SRC}).symtab, HloOptions())
    monkeypatch.setattr(constprop, "_MAX_SWEEPS", max_sweeps)
    dense = reference.compute_block_inputs(routine, ctx, max_sweeps)
    sparse = constprop.compute_block_inputs(routine, ctx)
    for label, state in dense.items():
        assert sparse[label] == reference.constants_of(state)
    gave_up = not any(sparse.values())
    # One sweep to visit, one to see the back edge, one to confirm.
    assert gave_up == (max_sweeps < 3)
    if not gave_up:
        # k = 7 reaches the loop head on both edges.
        head = [label for label in sparse if "for_head" in label][0]
        assert 7 in sparse[head].values()
