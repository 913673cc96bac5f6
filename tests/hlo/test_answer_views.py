"""Replay edits its own copies of the profile views, never the answer's.

A deciding link's :class:`AppliedWpa` holds the views its decisions
were made from (each routine's ``facts.view``).  Phase-5 replay splices
inlined callees' counts into the callers' views, so the replay scope is
privatised first, views included, whichever way the answer was reached.
"""

from __future__ import annotations

import copy

import pytest

from repro.driver.compiler import Compiler, train
from repro.driver.options import CompilerOptions
from repro.hlo.driver import AppliedWpa, HighLevelOptimizer
from repro.synth import WorkloadConfig, generate


def _sources():
    return dict(generate(WorkloadConfig(
        "views", n_modules=6, routines_per_module=4, n_features=3,
        dispatch_count=60, input_size=16, seed=11,
    )).sources)


@pytest.mark.parametrize("pbo", [False, True], ids=["O4", "O4+P"])
def test_replay_leaves_the_answer_views_alone(pbo):
    sources = _sources()
    profile_db = train(sources, [None]) if pbo else None
    real_decide = AppliedWpa.decide
    real_scalar = HighLevelOptimizer.run_scalar_phase
    answers = []
    checked = []

    def decide(*args):
        answer = real_decide(*args)
        answers.append(answer)
        return answer

    def run_scalar_phase(self, result, *args, **kwargs):
        [answer] = answers
        before = copy.deepcopy(answer.fields()["views"])
        machines = real_scalar(self, result, *args, **kwargs)
        checked.append((result, before, answer.fields()["views"]))
        return machines

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AppliedWpa, "decide", staticmethod(decide))
        patch.setattr(HighLevelOptimizer, "run_scalar_phase",
                      run_scalar_phase)
        Compiler(CompilerOptions(opt_level=4, pbo=pbo)).build(
            sources, profile_db=profile_db)

    [(result, before, after)] = checked
    # The program exercises what replay does to views.
    assert result.clones
    assert result.inline_stats.performed > 0
    assert after == before
