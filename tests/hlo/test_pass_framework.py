"""Unit tests for the pass framework (pipeline, context, stats)."""

import pytest

from reference_pipeline import ReferencePipeline
from repro.driver.compiler import Compiler
from repro.driver.options import CompilerOptions
from repro.frontend import compile_sources
from repro.hlo.analysis.modref import ModRefAnalysis
from repro.hlo.driver import standard_pipeline
from repro.hlo.options import HloOptions
from repro.hlo.passes import (
    CFG,
    EMPTIED,
    EVERY_KIND,
    PROPAGATED,
    REMOVED,
    REWRITTEN,
    OptContext,
    PassPipeline,
    PassStats,
    RoutinePass,
    UnsignalledEnablementError,
)
from repro.hlo.analysis.dominators import immediate_dominators
from repro.hlo.transforms.dce import DeadCodeElimination
from repro.ir import (
    Instr,
    IRError,
    Opcode,
    VerifierError,
    format_routine,
    parse_routine,
)
from repro.sched.events import EventLog


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


class _Scripted(RoutinePass):
    """Reports what its script says, run by run (then nothing), and
    declares what the test gives it."""

    def __init__(self, name, script, enabled_by=EVERY_KIND):
        self.name = name
        self.script = list(script)
        self.enabled_by = enabled_by
        self.calls = 0

    def run(self, routine, ctx):
        self.calls += 1
        return self.script.pop(0) if self.script else 0


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
        # Still changing when it stopped: not a fixed point, and said so.
        assert ctx.stats.capped == ["main"]

    def test_a_confirmed_fixed_point_is_not_capped(self):
        program, ctx = make_ctx(HloOptions(max_pass_iterations=3))
        PassPipeline([_CountingPass(fires=2)]).run_routine(
            program.routine("main"), ctx
        )
        assert ctx.stats.capped == []

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

    def test_merge_folds_the_schedule_counters(self):
        stats, other = PassStats(), PassStats()
        stats.runs, stats.skips, stats.capped = {"a": 2}, {"a": 1}, ["f"]
        other.runs, other.skips, other.capped = (
            {"a": 3, "b": 1}, {"b": 4}, ["g"]
        )
        stats.merge(other)
        assert stats.runs == {"a": 5, "b": 1}
        assert stats.skips == {"a": 1, "b": 4}
        assert stats.capped == ["f", "g"]

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


class TestScheduling:
    """A pass runs again only when a kind that enables it has been
    reported since its own last run."""

    def run(self, passes, options=None):
        # Unchecked unless the test says otherwise (also under
        # --hlo-checked): a checked pipeline calls what it skips.
        program, ctx = make_ctx(options or HloOptions(checked=False))
        PassPipeline(passes).run_routine(program.routine("main"), ctx)
        return ctx.stats

    def test_a_quiet_routine_runs_every_pass_once(self):
        passes = [_Scripted("a", []), _Scripted("b", [], enabled_by=CFG)]
        stats = self.run(passes)
        assert [p.calls for p in passes] == [1, 1]
        assert stats.runs == {"a": 1, "b": 1} and stats.skips == {}

    def test_only_enabled_passes_run_again(self):
        early = _Scripted("early", [], enabled_by=CFG)
        mover = _Scripted("mover", [REMOVED], enabled_by=CFG)
        late = _Scripted("late", [], enabled_by=REMOVED | CFG)
        stats = self.run([early, mover, late])
        # Round 0 runs all three; REMOVED enables only ``late``, which
        # already ran after it was reported: the confirming round is
        # all skips.
        assert [p.calls for p in (early, mover, late)] == [1, 1, 1]
        assert stats.skips == {"early": 1, "mover": 1, "late": 1}
        assert stats.counts == {"mover": 1}

    def test_a_report_reaches_passes_earlier_in_the_order(self):
        early = _Scripted("early", [0, PROPAGATED], enabled_by=REMOVED)
        mover = _Scripted("mover", [REMOVED], enabled_by=CFG)
        stats = self.run([early, mover])
        # early, mover | early (enabled by REMOVED), mover skipped:
        # PROPAGATED enables neither | both skipped.
        assert (early.calls, mover.calls) == (2, 1)
        assert stats.runs == {"early": 2, "mover": 1}
        assert stats.skips == {"mover": 2, "early": 1}

    def test_a_pass_can_enable_itself(self):
        again = _Scripted("again", [CFG, CFG], enabled_by=CFG)
        follower = _Scripted("follower", [REWRITTEN] * 3, enabled_by=CFG)
        self.run([again, follower])
        # ``again`` runs until its own report dries up; ``follower``
        # runs after each CFG it saw, never after its own REWRITTEN.
        assert (again.calls, follower.calls) == (3, 2)

    def test_plain_booleans_count_as_every_kind(self):
        """A pass written against the old contract keeps working: its
        ``True`` enables everything, its ``False`` nothing."""
        legacy = _CountingPass(fires=1)
        narrow = _Scripted("narrow", [], enabled_by=EMPTIED)
        stats = self.run([narrow, legacy])
        assert (narrow.calls, legacy.calls) == (2, 2)
        assert stats.counts == {"counting": 1}

    def test_checked_mode_catches_an_under_declared_pass(self):
        """``liar`` claims only CFG changes give it work, then changes
        the routine after a REMOVED: an unchecked build would have
        skipped that run and stopped short."""
        passes = lambda: [  # noqa: E731
            _Scripted("liar", [0, REWRITTEN], enabled_by=CFG),
            _Scripted("mover", [REMOVED], enabled_by=CFG),
        ]
        unchecked = passes()
        self.run(unchecked)
        assert [p.calls for p in unchecked] == [1, 1]
        with pytest.raises(UnsignalledEnablementError) as excinfo:
            self.run(passes(), HloOptions(checked=True))
        error = excinfo.value
        assert (error.pass_name, error.routine) == ("liar", "main")
        assert error.kinds == REMOVED
        assert "liar" in str(error) and "removed" in str(error)

    def test_checked_mode_counts_what_unchecked_counts(self):
        def passes():
            return [_Scripted("a", [REMOVED], enabled_by=CFG),
                    _Scripted("b", [], enabled_by=REMOVED)]
        plain = self.run(passes())
        checked = self.run(passes(), HloOptions(checked=True))
        assert (checked.runs, checked.skips) == (plain.runs, plain.skips)

    def test_the_error_survives_a_process_boundary(self):
        import pickle

        error = pickle.loads(pickle.dumps(
            UnsignalledEnablementError("dce", "f", CFG | EMPTIED)
        ))
        assert (error.pass_name, error.routine, error.kinds) == (
            "dce", "f", CFG | EMPTIED
        )
        assert "cfg, emptied" in str(error)


#: Bodies on which a deletion gives an *earlier* pass work, so the
#: confirming round is not idle: the clean-deletion kind must not be
#: what dead-code elimination reports for them.
ENABLING_DELETIONS = {
    # ``y = y + 1`` is dead and ended ``t copies y``: once it is gone
    # constprop renames ``t`` away.
    "copy outlives its kill": "func f(y) { var t = y; y = y + 1; return t; }",
    # ``x = a * 3`` is dead and ended ``x holds g``: once it is gone
    # memopt forwards the second load.
    "holder outlives its kill":
        "func f(a) { var x = g; var u = x + a; x = a * 3; var z = g;"
        " return u + z; }",
    # The adds die first, then the multiply only they read.
    "operand dies with its reader":
        "func f(a) { var u = a * 7; var w = 0;"
        " if (a) { w = u + 1; } else { w = u + 2; } return a; }",
    # ``a * 0`` folds to a constant other blocks have not heard of.
    "constant the solver did not know":
        "func f(a) { var z = a * 0; var r = 0;"
        " if (a) { r = z + 5; } else { r = z + 6; } return r; }",
    # ``a = t`` becomes a self-move: a definition of a live register.
    "self-move": "func f(a) { var t = a; a = t; var q = a + t; return q; }",
    # The forwarded load stops observing the first store.
    "forwarded load frees a store":
        "func f(a) { g = a; var x = g; g = x + 1; return x; }",
}


def optimize(source, make_pipeline, checked=False):
    program = compile_sources(
        {"m": "global g = 1;\n%s\nfunc main() { return f(g); }" % source}
    )
    ctx = OptContext(program.symtab, HloOptions(checked=checked))
    ctx.modref = ModRefAnalysis.analyze(program.all_routines())
    routine = program.routine("f")
    make_pipeline(standard_pipeline().passes).run_routine(routine, ctx)
    return format_routine(routine), ctx.stats


@pytest.mark.parametrize("case", sorted(ENABLING_DELETIONS))
def test_standard_pipeline_reruns_what_a_change_enabled(case):
    source = ENABLING_DELETIONS[case]
    expected, spec = optimize(source, ReferencePipeline)
    # The spec needed more than a confirming round...
    assert sum(spec.runs.values()) > 12
    # ... and the scheduler, held to its declarations, gets there too.
    text, stats = optimize(source, PassPipeline, checked=True)
    assert text == expected
    assert stats.counts == spec.counts
    assert sum(stats.runs.values()) < sum(spec.runs.values())


class TestDceKinds:
    """What dead-code elimination vouches for when it reports
    ``REMOVED`` alone, on hand-written blocks."""

    def kinds(self, body):
        routine, _ = parse_routine(
            ["routine f(2) exported lines=1 {"]
            + body.strip().splitlines() + ["}"]
        )
        program, ctx = make_ctx()
        return DeadCodeElimination().run(routine, ctx)

    def test_clean_deletion(self):
        assert self.kinds("""
entry0:
    r2 = add r0, r1
    r3 = mov r2
    ret r2""") == REMOVED

    def test_nothing_dead(self):
        assert self.kinds("""
entry0:
    r2 = add r0, r1
    ret r2""") == 0

    def test_operand_with_no_reader_left_in_the_block(self):
        assert self.kinds("""
entry0:
    r2 = add r0, r1
    r3 = mov r2
    ret r0""") == REMOVED | REWRITTEN

    def test_operand_read_only_by_another_deleted_instruction(self):
        assert self.kinds("""
entry0:
    r2 = add r0, r0
    r3 = mov r2
    r4 = mov r2
    ret r0""") & REWRITTEN

    def test_deleted_definition_of_a_copied_register(self):
        assert self.kinds("""
entry0:
    r2 = mov r0
    r0 = add r1, r1
    r3 = add r2, r1
    ret r3""") == REMOVED | REWRITTEN

    def test_deleted_definition_of_a_stored_register(self):
        assert self.kinds("""
entry0:
    storeg @g, r0
    r0 = add r1, r1
    ret r1""") == REMOVED | REWRITTEN

    def test_deleted_definition_of_a_loaded_register(self):
        assert self.kinds("""
entry0:
    r2 = loadg @g
    r3 = add r2, r1
    r2 = add r1, r1
    ret r3""") == REMOVED | REWRITTEN

    def test_a_staying_redefinition_in_between_keeps_it_clean(self):
        assert self.kinds("""
entry0:
    r2 = mov r0
    r3 = add r2, r1
    r0 = add r3, r1
    r4 = add r0, r1
    r0 = add r4, r4
    ret r4""") == REMOVED

    def test_deleted_load(self):
        assert self.kinds("""
entry0:
    r2 = loadg @g
    r3 = add r0, r1
    ret r3""") == REMOVED | REWRITTEN

    def test_self_move(self):
        assert self.kinds("""
entry0:
    r0 = mov r0
    r3 = add r0, r1
    ret r3""") == REMOVED | REWRITTEN

    def test_block_left_with_its_terminator(self):
        assert self.kinds("""
entry0:
    r2 = const 1
    jmp next1
next1:
    ret r0""") == REMOVED | EMPTIED


class TestIterationCapEvent:
    """A body that stopped at ``max_pass_iterations`` while still
    changing is named in the build's events, serial or partitioned."""

    def capped(self, sources, **option_kwargs):
        options = CompilerOptions(
            opt_level=4, hlo=HloOptions(max_pass_iterations=1),
            **option_kwargs
        )
        events = EventLog()
        result = Compiler(options).build(sources, events=events)
        named = sorted(
            event["routine"] for event in result.hlo_result.events
            if event["event"] == "scalar-iteration-cap"
        )
        logged = sorted(
            event.args["routine"] for event in events.events
            if event.name == "scalar-iteration-cap"
        )
        assert named == logged == sorted(result.hlo_result.ctx.stats.capped)
        return named

    def test_serial_and_partitioned_name_the_same_routines(
            self, calc_sources):
        serial = self.capped(calc_sources)
        assert serial  # one round is not enough for these bodies
        assert self.capped(calc_sources, hlo_partitions=2) == serial

    def test_a_converged_build_has_none(self, calc_sources):
        result = Compiler(CompilerOptions(opt_level=4)).build(calc_sources)
        assert result.hlo_result.ctx.stats.capped == []
        assert not [
            event for event in result.hlo_result.events
            if event["event"] == "scalar-iteration-cap"
        ]
