"""A link whose WPA inputs equal the last link's applies the stored
outcome instead of deciding again.

The invariant is the one every incremental test holds: whatever the
edit, the rebuild links the image a clean build of the same sources
links.  On top of it: an edit that leaves every routine's facts and the
globals as they were is served from the stored outcome, any other edit
decides, a checked link that applied an outcome decides beside it and
refuses a difference, and what the link hands its partition workers
does not depend on which of the two it did.
"""

from __future__ import annotations

import copy
import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.hlo.driver as hlo_driver
from repro.driver.build import BuildEngine, BuildError
from repro.driver.compiler import Compiler, train
from repro.driver.options import CompilerOptions
from repro.hlo.driver import AppliedWpa
from repro.hlo.options import HloOptions
from repro.linker.objects import encode_executable
from repro.llo.driver import LloOptions
from repro.memo import MemoMismatchError
from repro.naim.config import NaimConfig
from repro.naim.loader import Loader
from repro.naim.memory import MemoryAccountant
from repro.part.wire import encode_shared_context
from repro.synth import WorkloadConfig, generate
from synth_edits import (
    add_statement,
    bump,
    bump_call_argument,
    bump_global_initializer,
    delete_uncalled_routine,
)


def _app(seed):
    return generate(WorkloadConfig(
        "wpa%d" % seed, n_modules=5, routines_per_module=3, n_features=2,
        dispatch_count=40, input_size=16, seed=seed,
    ))


def _image(result):
    return encode_executable(result.executable)


def _clean_image(options, sources):
    return _image(Compiler(options).build(sources))


#: Edit kind -> (sources, module, nth) -> the module's edited source.
EDITS = {
    "bump": lambda sources, module, nth: bump(sources[module], nth),
    "call-argument": lambda sources, module, nth: bump_call_argument(
        sources[module], nth),
    "add-statement": lambda sources, module, nth: add_statement(
        sources[module], nth),
    "global-initializer": lambda sources, module, nth:
        bump_global_initializer(sources[module], nth),
    "delete-routine": lambda sources, module, nth: delete_uncalled_routine(
        sources, module, nth),
}


@given(
    seed=st.integers(0, 10**6),
    steps=st.lists(
        st.tuples(st.sampled_from(sorted(EDITS)), st.integers(0, 10**6),
                  st.integers(0, 10**6)),
        min_size=1, max_size=5,
    ),
)
@settings(deadline=None, max_examples=15,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_edit_sequence_links_the_clean_image(seed, steps):
    options = CompilerOptions(opt_level=4)
    sources = dict(_app(seed % 97).sources)
    modules = sorted(name for name in sources if name != "main")
    engine = BuildEngine(options, incremental=True)
    engine.build(sources)
    for kind, module_pick, nth in steps:
        module = modules[module_pick % len(modules)]
        edited = EDITS[kind](sources, module, nth)
        unchanged = edited == sources[module]
        sources[module] = edited
        result, _report = engine.build(sources)
        assert _image(result) == _clean_image(options, sources)
        # A constant bump changes no fact; every other edit changes one.
        expected = "reused" if unchanged or kind == "bump" else "decided"
        assert result.incr_report.wpa == expected, (kind, module)


def _warm_engine(options, seed=11):
    app = generate(WorkloadConfig(
        "wpa-warm", n_modules=8, routines_per_module=4, n_features=3,
        dispatch_count=40, input_size=16, seed=seed,
    ))
    sources = dict(app.sources)
    victim = sorted(name for name in sources if name != "main")[2]
    engine = BuildEngine(options, incremental=True)
    engine.build(sources)
    sources[victim] = bump(sources[victim])
    return engine, sources, victim


def test_the_reason_names_what_changed():
    options = CompilerOptions(opt_level=4)
    engine, sources, victim = _warm_engine(options)
    result, _report = engine.build(sources)
    assert result.incr_report.describe_wpa() == "reused"
    sources[victim] = add_statement(sources[victim])
    result, _report = engine.build(sources)
    assert result.incr_report.describe_wpa() == (
        "decided (facts-changed: %s)" % victim
    )
    sources[victim] = bump_global_initializer(sources[victim])
    result, _report = engine.build(sources)
    assert result.incr_report.describe_wpa() == "decided (globals)"
    changed = BuildEngine(CompilerOptions(
        opt_level=4, hlo=HloOptions(inline_callee_max_instrs=40),
    ), incremental=True)
    changed.incr_state = engine.incr_state
    result, _report = changed.build(sources)
    assert result.incr_report.describe_wpa() == "decided (options)"


def test_a_checked_link_decides_beside_the_stored_outcome():
    """The guard guards: an outcome that applies cleanly but is not what
    the inputs decide is refused by a checked link."""
    options = CompilerOptions(opt_level=4, hlo=HloOptions(checked=True))
    engine, sources, _victim = _warm_engine(options)
    result, _report = engine.build(sources)
    assert result.incr_report.wpa == "reused"
    assert _image(result) == _clean_image(options, sources)

    repository = engine.incr_state.repository
    head, _newline, body = bytes(
        repository.fetch("wpa", "outcome")
    ).partition(b"\n")
    header = json.loads(head)
    outcome = json.loads(body)
    outcome["inline_stats"]["rejected_size"] += 1
    body = json.dumps(outcome, sort_keys=True).encode("utf-8")
    header["sum"] = hashlib.sha256(body).hexdigest()[:16]
    repository.store("wpa", "outcome",
                     json.dumps(header).encode("utf-8") + b"\n" + body)
    with pytest.raises(BuildError, match="inline_stats") as caught:
        engine.build(sources)
    failure = caught.value.__cause__
    assert isinstance(failure, MemoMismatchError)
    assert failure.memo == "wpa outcome"


def test_the_partition_context_does_not_depend_on_reuse(monkeypatch):
    """What a link ships to its partition workers is byte-identical
    whether it applied the stored outcome or decided."""
    options = CompilerOptions(opt_level=4)
    engine, sources, _victim = _warm_engine(options)
    contexts = []
    real_decide = hlo_driver.HighLevelOptimizer._decide

    def decide(self, selected_routines):
        result, facts_by_name = real_decide(self, selected_routines)
        if self.incr_session is not None:
            contexts.append(encode_shared_context(
                result, LloOptions(2), NaimConfig(),
                result.unit.routine_names(),
            ))
        return result, facts_by_name

    monkeypatch.setattr(hlo_driver.HighLevelOptimizer, "_decide", decide)
    result, _report = engine.build(sources)
    assert result.incr_report.wpa == "reused"
    engine.incr_state.repository.discard("wpa", "outcome")
    result, _report = engine.build(sources)
    assert result.incr_report.describe_wpa() == "decided (missing)"
    assert len(contexts) == 2
    assert contexts[0] == contexts[1]


def test_a_profiled_link_leaves_no_outcome_behind():
    """A link with a profile decides without the facts cache and leaves
    no outcome for a later link to apply."""
    options = CompilerOptions(opt_level=4)
    engine, sources, _victim = _warm_engine(options)
    engine.build(sources)
    state = engine.incr_state
    assert state.repository.contains("wpa", "outcome")
    profiled = BuildEngine(CompilerOptions(opt_level=4, pbo=True),
                           incremental=True)
    profiled.incr_state = state
    result, _report = profiled.build(sources,
                                     profile_db=train(sources, [None]))
    assert result.incr_report.describe_wpa() == "decided (profile)"
    assert not state.repository.contains("wpa", "outcome")
    assert state.wpa_digest is None
    result, _report = engine.build(sources)
    assert result.incr_report.describe_wpa() == "decided (options)"
    assert not [event for event in result.hlo_result.events
                if event.get("event") == "wpa-outcome-fallback"]
    assert _image(result) == _clean_image(options, sources)



#: Link shape -> (options, whether the link trains a profile first).
ANSWER_SHAPES = {
    "O4": (CompilerOptions(opt_level=4), False),
    "O4+P": (CompilerOptions(opt_level=4, pbo=True), True),
    "coarse": (CompilerOptions(opt_level=4, pbo=True,
                               selectivity_percent=20), True),
}


def _no_construction(*_args, **_kwargs):
    raise AssertionError("the decision constructed a loader or a unit")


@given(seed=st.integers(0, 10**6),
       shape=st.sampled_from(sorted(ANSWER_SHAPES)))
@settings(deadline=None, max_examples=12,
          suppress_health_check=[HealthCheck.too_slow])
def test_deciding_and_deriving_give_the_same_answer(seed, shape):
    """The deciding link's answer is what applying its own outcome to
    the pristine facts gives, field by field, with and without a
    profile and under coarse selectivity; and the decision procedure
    runs on facts alone: deciding again with no loader and no unit
    gives the same answer once more."""
    options, trained = ANSWER_SHAPES[shape]
    sources = dict(_app(seed % 97).sources)
    profile_db = train(sources, [None]) if trained else None
    real_decide = AppliedWpa.decide
    seen = []

    def decide(facts_by_name, keep, summary_cost, symtab, *args):
        pristine = [{name: facts.copy()
                     for name, facts in facts_by_name.items()}
                    for _ in range(2)]
        answer = real_decide(facts_by_name, keep, summary_cost, symtab,
                             *args)
        # Compare what the WPA handed on, as it handed it on.
        fields = copy.deepcopy(answer.fields())
        derived = AppliedWpa.derive(answer.outcome, pristine[0],
                                    summary_cost, symtab)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Loader, "__init__", _no_construction)
            patch.setattr(hlo_driver.CmoUnit, "__init__", _no_construction)
            alone = real_decide(pristine[1], keep, summary_cost, symtab,
                                *args[:-2], MemoryAccountant(), {})
        externally_callable = args[-4]
        seen.append((externally_callable, fields, derived.fields(),
                     alone.fields()))
        return answer

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AppliedWpa, "decide", staticmethod(decide))
        Compiler(options).build(sources, profile_db=profile_db)
    [(externally_callable, fields, derived, alone)] = seen
    assert bool(externally_callable) == (shape == "coarse")
    assert list(derived) == list(alone) == list(fields)
    for name, value in fields.items():
        assert derived[name] == value, name
        assert alone[name] == value, name
