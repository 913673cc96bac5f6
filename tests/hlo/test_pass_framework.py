"""Unit tests for the pass framework (pipeline, context, stats)."""

import pytest

from repro.frontend import compile_sources
from repro.hlo.options import HloOptions
from repro.hlo.passes import OptContext, PassPipeline, PassStats, RoutinePass
from repro.hlo.analysis.dominators import immediate_dominators
from repro.ir import Instr, IRError, Opcode, VerifierError


class _CountingPass(RoutinePass):
    name = "counting"

    def __init__(self, fires=1):
        self.fires = fires
        self.calls = 0

    def run(self, routine, ctx):
        self.calls += 1
        if self.fires > 0:
            self.fires -= 1
            return True
        return False


class _BreakingPass(RoutinePass):
    name = "breaking"

    def run(self, routine, ctx):
        routine.blocks[0].instrs.pop()  # drop the terminator
        return True


class _UnderDeclaringPass(RoutinePass):
    """Folds the entry branch but declares an instruction-only rewrite."""

    name = "underdeclaring"

    def run(self, routine, ctx):
        term = routine.entry.terminator
        if term.op is not Opcode.BR:
            return False
        immediate_dominators(routine)
        routine.entry.instrs[-1] = Instr(Opcode.JMP, targets=term.targets[:1])
        routine.invalidate_instrs()
        return True


def make_ctx(options=None):
    program = compile_sources({"m": "func main() { return 1; }"})
    return program, OptContext(program.symtab, options or HloOptions())


class TestPassStats:
    def test_bump_and_get(self):
        stats = PassStats()
        stats.bump("x")
        stats.bump("x", 2)
        stats.bump("y", 0)  # zero is a no-op
        assert stats.get("x") == 3
        assert stats.get("y") == 0
        assert "x=3" in repr(stats)


class TestPipeline:
    def test_runs_until_quiescent(self):
        program, ctx = make_ctx()
        phase = _CountingPass(fires=2)
        pipeline = PassPipeline([phase])
        changes = pipeline.run_routine(program.routine("main"), ctx)
        assert changes == 2
        # Two changing iterations + one quiet one.
        assert phase.calls == 3

    def test_iteration_bound(self):
        program, ctx = make_ctx(HloOptions(max_pass_iterations=2))
        phase = _CountingPass(fires=100)
        PassPipeline([phase]).run_routine(program.routine("main"), ctx)
        assert phase.calls == 2

    def test_stats_recorded(self):
        program, ctx = make_ctx()
        PassPipeline([_CountingPass(fires=1)]).run_routine(
            program.routine("main"), ctx
        )
        assert ctx.stats.get("counting") == 1

    def test_checked_mode_catches_bad_pass(self):
        program, ctx = make_ctx(HloOptions(checked=True))
        with pytest.raises(VerifierError):
            PassPipeline([_BreakingPass()]).run_routine(
                program.routine("main"), ctx
            )

    def test_checked_mode_catches_stale_derived_data(self):
        program = compile_sources(
            {"m": "func main() { var a = 1; if (a) { a = 2; } return a; }"}
        )
        ctx = OptContext(program.symtab, HloOptions(checked=True))
        with pytest.raises(IRError, match="stale derived result"):
            PassPipeline([_UnderDeclaringPass()]).run_routine(
                program.routine("main"), ctx
            )

    def test_pass_seconds_recorded_for_every_run(self):
        program, ctx = make_ctx()
        PassPipeline([_CountingPass(fires=1)]).run_routine(
            program.routine("main"), ctx
        )
        assert ctx.stats.get("counting") == 1  # one run changed something
        assert ctx.stats.seconds["counting"] > 0  # both runs were timed
        other = PassStats()
        other.bump("counting", 2, seconds=1.5)
        ctx.stats.merge(other)
        assert ctx.stats.get("counting") == 3
        assert ctx.stats.seconds["counting"] > 1.5

    def test_unchecked_mode_does_not_verify(self):
        program, ctx = make_ctx(HloOptions(checked=False,
                                           max_pass_iterations=1))
        PassPipeline([_BreakingPass()]).run_routine(
            program.routine("main"), ctx
        )  # no exception: verification is opt-in


class TestOptContext:
    def test_view_for_creates_static_estimate(self):
        program, ctx = make_ctx()
        view = ctx.view_for(program.routine("main"))
        assert view.is_static_estimate
        assert ctx.view_for(program.routine("main")) is view

    def test_has_measured_profile(self):
        program, ctx = make_ctx()
        routine = program.routine("main")
        assert not ctx.has_measured_profile(routine)
        from repro.hlo.profile_view import ProfileView

        ctx.views["main"] = ProfileView("main", {"entry0": 5})
        assert ctx.has_measured_profile(routine)

    def test_base_pass_abstract(self):
        program, ctx = make_ctx()
        with pytest.raises(NotImplementedError):
            RoutinePass().run(program.routine("main"), ctx)
