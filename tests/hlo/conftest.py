"""Harness for driving one WPA transform on hand-built IR.

The transforms decide over ``RoutineFacts`` and record body mutations
on a ``WpaPlan``; a unit test goes extract -> decide -> replay and then
asserts on the real program.
"""

import pytest

from repro.frontend import compile_sources
from repro.hlo.analysis.modref import ModRefAnalysis
from repro.hlo.driver import CmoUnit, build_callgraph
from repro.hlo.options import HloOptions
from repro.hlo.passes import OptContext
from repro.hlo.profile_view import ProfileView
from repro.hlo.thin import WpaPlan, replay_plan
from repro.incr.summary import extract_routine_facts
from repro.naim.config import NaimConfig
from repro.naim.loader import Loader
from repro.naim.memory import MemoryAccountant


class WpaHarness:
    def __init__(self, sources, options=None):
        self.program = compile_sources(sources)
        self.ctx = OptContext(self.program.symtab, options or HloOptions())
        self.ctx.modref = ModRefAnalysis.analyze(self.program.all_routines())
        self.unit = CmoUnit(Loader(
            NaimConfig(), self.program.symtab, MemoryAccountant(), None
        ))
        self.facts = {}
        for module in self.program.module_list():
            self.unit.add_module(module)
            for routine in module.routine_list():
                view = ProfileView.static_estimate(routine)
                self.ctx.views[routine.name] = view
                self.facts[routine.name] = extract_routine_facts(
                    routine, view=view
                )
        self.names = self.unit.routine_names()
        self.plan = WpaPlan()

    def callgraph(self, weight):
        """The facts call graph with every site given ``weight``."""
        graph = build_callgraph(self.facts)
        for site in graph.all_sites():
            site.weight = weight
        return graph

    def replay(self):
        """Apply the recorded plan; returns the mutated program."""
        replay_plan(
            self.plan, set(self.unit.routine_names()), self.unit.loader,
            self.unit.routine_handles, self.ctx.views, self.ctx.options,
        )
        return self.unit.materialize(self.program)


@pytest.fixture
def wpa():
    return WpaHarness
