"""Deterministic cost guards for the scalar dataflow kernels.

Counts, not timings: what the solver stores per block must scale with
the constants in flight (not with the virtual registers), and the
CFG-shaped analyses may be recomputed only when the CFG changed.  CI
runs this file by name next to the ``benchmarks/perf`` smoke.
"""

from functools import reduce
from operator import or_

from repro.frontend import compile_sources
from repro.hlo.analysis.liveness import liveness
from repro.hlo.analysis.modref import ModRefAnalysis
from repro.hlo.driver import standard_pipeline
from repro.hlo.options import HloOptions
from repro.hlo.passes import (
    REWRITTEN,
    OptContext,
    PassPipeline,
    PassStats,
)
from repro.hlo.transforms.constprop import compute_block_inputs
from repro.ir import BasicBlock, Instr, Opcode, Routine
from repro.ir.derived import DerivedCache
from repro.ir.symbols import ProgramSymbolTable
from repro.synth import WorkloadConfig, generate

N_WIDE = 2000
N_BLOCKS = 40
N_CONSTANTS = 3


def wide_routine():
    """``N_WIDE`` registers loaded from memory (never constant) and
    ``N_CONSTANTS`` constants, all live through a ladder of
    ``N_BLOCKS`` blocks with skip edges."""
    routine = Routine("wide")
    entry = BasicBlock("b0")
    for _ in range(N_WIDE):
        entry.instrs.append(
            Instr(Opcode.LOADG, dst=routine.new_reg(), sym="cell")
        )
    constants = []
    for value in range(N_CONSTANTS):
        constants.append(routine.new_reg())
        entry.instrs.append(
            Instr(Opcode.CONST, dst=constants[-1], imm=value + 1)
        )
    entry.instrs.append(Instr(Opcode.JMP, targets=("b1",)))
    routine.blocks.append(entry)
    total = routine.new_reg()
    for index in range(1, N_BLOCKS - 1):
        block = BasicBlock("b%d" % index)
        block.instrs.append(
            Instr(Opcode.ADD, dst=total, a=index, b=constants[index % 3])
        )
        skip = "b%d" % min(index + 2, N_BLOCKS - 1)
        block.instrs.append(
            Instr(Opcode.BR, a=index, targets=("b%d" % (index + 1), skip))
        )
        routine.blocks.append(block)
    last = BasicBlock("b%d" % (N_BLOCKS - 1))
    for reg in range(N_WIDE):
        last.instrs.append(Instr(Opcode.STOREG, a=reg, sym="cell"))
    last.instrs.append(Instr(Opcode.RET, a=total))
    routine.blocks.append(last)
    return routine


def test_solver_state_scales_with_constants_not_registers():
    routine = wide_routine()
    ctx = OptContext(ProgramSymbolTable(), HloOptions())
    states = compute_block_inputs(routine, ctx)
    assert len(states) == N_BLOCKS
    cells = sum(len(state) for state in states.values())
    assert cells <= N_CONSTANTS * N_BLOCKS
    # ... and the constants did get there.
    assert len(states["b%d" % (N_BLOCKS - 1)]) == N_CONSTANTS


def test_liveness_is_one_mask_per_block():
    info = liveness(wide_routine())
    for masks in (info.live_in, info.live_out, info.use, info.defs):
        assert len(masks) == N_BLOCKS
        assert all(type(mask) is int for mask in masks.values())
    assert bin(info.live_out["b0"]).count("1") >= N_WIDE


def cfg_signature(routine):
    return [
        (block.label, block.terminator and block.terminator.op,
         block.successors())
        for block in routine.blocks
    ]


class CfgWatch(DerivedCache):
    """Counts recomputations per analysis, and how often an
    invalidation followed a real CFG change."""

    def __init__(self, routine):
        super().__init__()
        self.routine = routine
        self.signature = cfg_signature(routine)
        self.cfg_changes = 0
        self.instr_only = 0
        self.recomputes = {}

    def get(self, key, compute, cfg_shaped=False):
        # Only misses come here: the registered accessors answer hits
        # straight from the cache.
        self.recomputes[key] = self.recomputes.get(key, 0) + 1
        return super().get(key, compute, cfg_shaped)

    def verify(self, routine):
        # Checked runs recompute everything on the side: not a cost.
        counted = dict(self.recomputes)
        super().verify(routine)
        self.recomputes = counted

    def _look(self):
        signature = cfg_signature(self.routine)
        if signature != self.signature:
            self.signature = signature
            self.cfg_changes += 1
            return True
        return False

    def invalidate(self):
        self._look()
        super().invalidate()

    def invalidate_instrs(self):
        if not self._look():
            self.instr_only += 1
        super().invalidate_instrs()


def run_pipeline_watched(watch_class=CfgWatch):
    """The standard pipeline over a synth program; one watch per routine."""
    app = generate(WorkloadConfig(
        "guard", n_modules=5, routines_per_module=4, n_features=3,
        dispatch_count=40, input_size=16, seed=23,
    ))
    program = compile_sources(app.sources)
    ctx = OptContext(program.symtab, HloOptions())
    ctx.modref = ModRefAnalysis.analyze(program.all_routines())
    pipeline = standard_pipeline()
    watches = []
    for routine in program.all_routines():
        routine.derived = watch_class(routine)
        pipeline.run_routine(routine, ctx)
        watches.append(routine.derived)
    return watches


def over_budget(watches):
    return [
        (watch.routine.name, key, watch.recomputes[key], watch.cfg_changes)
        for watch in watches
        for key in ("idom", "loops")
        if watch.recomputes.get(key, 0) > 1 + watch.cfg_changes
    ]


def test_cfg_analyses_recomputed_only_after_cfg_changes():
    watches = run_pipeline_watched()
    assert over_budget(watches) == []
    # The bound is not vacuous: instruction-only rewrites did happen,
    # and so did recomputations.
    assert sum(watch.instr_only for watch in watches) > len(watches)
    assert sum(watch.recomputes.get("idom", 0) for watch in watches) > 0


def test_guard_notices_a_blanket_invalidation():
    """With every rewrite dropping everything (the old discipline) the
    same run goes over budget: the guard above has teeth."""

    class BlanketWatch(CfgWatch):
        def invalidate_instrs(self):
            self.invalidate()

    assert over_budget(run_pipeline_watched(BlanketWatch))


# -- Pass executions ---------------------------------------------------------------
#
# The pipeline re-runs a pass only when a kind of change that enables
# it was reported since the pass last ran.  Counted per routine on the
# same synth program: before the scheduler every routine that changed
# at all ran at least 12 (one changing round, one confirming round).

N_PASSES = 6


def _union(kinds):
    return reduce(or_, kinds, 0)


class Recorded:
    """A pass of the standard pipeline that also remembers what it
    reported, run by run."""

    def __init__(self, phase):
        self.phase = phase
        self.name = phase.name
        self.enabled_by = phase.enabled_by
        self.reported = []

    def run(self, routine, ctx):
        kinds = self.phase.run(routine, ctx)
        self.reported.append(kinds)
        return kinds


def executions_per_routine():
    """(routine, runs, skips, changes per pass, kinds reported in the
    first round by pipeline slot) for every routine of the program."""
    app = generate(WorkloadConfig(
        "guard", n_modules=5, routines_per_module=4, n_features=3,
        dispatch_count=40, input_size=16, seed=23,
    ))
    program = compile_sources(app.sources)
    ctx = OptContext(program.symtab, HloOptions())
    ctx.modref = ModRefAnalysis.analyze(program.all_routines())
    rows = []
    for routine in program.all_routines():
        passes = [Recorded(phase) for phase in standard_pipeline().passes]
        ctx.stats = PassStats()
        PassPipeline(passes).run_routine(routine, ctx)
        rows.append((
            routine.name,
            sum(ctx.stats.runs.values()),
            sum(ctx.stats.skips.values()),
            dict(ctx.stats.counts),
            [phase.reported[0] for phase in passes],
        ))
    return rows


def test_pass_executions_follow_what_the_first_round_reported():
    rows = executions_per_routine()
    enabled_by = [phase.enabled_by for phase in standard_pipeline().passes]
    clean = 0
    for name, runs, skips, counts, first_round in rows:
        if sum(counts.values()) != sum(1 for kinds in first_round if kinds):
            continue  # a later round changed something: not this guard's
        # One more run for each pass that something at or after its own
        # slot enabled, and nothing else.
        reruns = sum(
            1 for slot in range(N_PASSES)
            if enabled_by[slot] & _union(first_round[slot:])
        )
        assert runs == N_PASSES + reruns, name
        # ... of the confirming round the exhaustive loop would have run.
        assert runs + skips == (2 * N_PASSES if counts else N_PASSES), name
        if set(counts) <= {"simplify", "constprop", "dce"} and not (
            _union(first_round) & REWRITTEN
        ):
            # The common case: folding, then clean deletions.  Only
            # simplify (after its own CFG change) and licm (after the
            # deletions) may look again.
            clean += 1
            assert runs <= N_PASSES + 2, name
    assert clean > len(rows) // 2  # the common case is the common case


def test_a_routine_nothing_changes_runs_each_pass_once():
    program = compile_sources({"m": "func main() { return 1; }"})
    ctx = OptContext(program.symtab, HloOptions())
    total = standard_pipeline().run_routine(program.routine("main"), ctx)
    # A quiet first round is its own confirmation.
    assert total == 0
    assert sum(ctx.stats.runs.values()) == N_PASSES
    assert ctx.stats.skips == {}
