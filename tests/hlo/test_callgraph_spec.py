"""Differential spec: the SCC pass in ``src/repro`` against the searches
it replaced (``reference_callgraph.py``).

Recursion and transitive mod/ref are both read off one condensation of
the call graph.  The per-routine DFS and the round-robin sweep they
replaced must give the same answers on every graph shape: self edges,
multi-routine cycles, callees outside the unit, ``unknown`` seeds.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_callgraph as reference
from repro.frontend import compile_sources
from repro.hlo.analysis.modref import ModRefAnalysis, ModRefInfo
from repro.incr.summary import extract_routine_facts
from repro.ir.callgraph import (
    CallGraph,
    CallGraphNode,
    strongly_connected_components,
)
from repro.synth import WorkloadConfig, generate

_SETTINGS = dict(
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.too_slow],
)

_GLOBALS = ["g%d" % i for i in range(5)]


@st.composite
def call_graphs(draw):
    """``(callees, direct)``: edges (to routines, to themselves, to names
    outside the unit) and per-routine direct mod/ref facts."""
    n = draw(st.integers(min_value=1, max_value=12))
    names = ["r%d" % i for i in range(n)]
    targets = names + ["ext0", "ext1"]
    callees = {}
    direct = {}
    for name in draw(st.permutations(names)):
        callees[name] = draw(st.lists(
            st.sampled_from(targets), max_size=4, unique=True
        ))
        info = ModRefInfo()
        info.mod = set(draw(st.lists(st.sampled_from(_GLOBALS), max_size=2)))
        info.ref = set(draw(st.lists(st.sampled_from(_GLOBALS), max_size=2)))
        info.unknown = draw(st.integers(min_value=0, max_value=9)) == 0
        direct[name] = info
    return callees, direct


def _graph_of(callees):
    graph = CallGraph()
    for name in callees:
        graph.nodes[name] = CallGraphNode(name, "m")
    for name, targets in callees.items():
        for index, callee in enumerate(targets):
            graph.add_site(name, "entry0", index, callee)
    return graph


def assert_recursion_agrees(callees):
    graph = _graph_of(callees)
    for name in callees:
        assert graph.is_recursive(name) == reference.reaches_itself(
            callees, name
        ), name
    assert not graph.is_recursive("ext0")


def assert_condensation_is_callees_first(callees):
    components = strongly_connected_components(callees)
    placed = {}
    for position, component in enumerate(components):
        for name in component:
            assert name not in placed
            placed[name] = position
    assert set(placed) == set(callees)
    for name, targets in callees.items():
        for callee in targets:
            if callee in placed:
                assert placed[callee] <= placed[name], (name, callee)


def assert_modref_agrees(callees, direct):
    solved = ModRefAnalysis.from_direct(direct, callees).info
    expected = reference.round_robin_modref(direct, callees)
    assert list(solved) == list(expected)  # same routines, same order
    for name, info in expected.items():
        ours = solved[name]
        assert ours.unknown == info.unknown, name
        if info.unknown:
            # The sweep left whatever it had merged so far; the SCC
            # solver leaves the routine's own direct sets.
            assert ours.mod == direct[name].mod, name
            assert ours.ref == direct[name].ref, name
        else:
            assert ours.mod == info.mod, name
            assert ours.ref == info.ref, name
    # Solving never writes through to the direct facts.
    assert all(ours is not direct[name] for name, ours in solved.items())


@given(call_graphs())
@settings(**_SETTINGS)
def test_random_graphs(graph):
    callees, direct = graph
    before = {name: (set(i.mod), set(i.ref), i.unknown)
              for name, i in direct.items()}
    assert_recursion_agrees(callees)
    assert_condensation_is_callees_first(callees)
    assert_modref_agrees(callees, direct)
    assert before == {name: (i.mod, i.ref, i.unknown)
                      for name, i in direct.items()}


def _facts_graph(seed, drop_module=None):
    """The facts graph the WPA driver builds for a synth program; with
    ``drop_module`` its routines become callees outside the unit."""
    app = generate(WorkloadConfig(
        "cgspec%d" % seed, n_modules=6, routines_per_module=5, n_features=3,
        dispatch_count=20, input_size=8, seed=seed,
    ))
    callees = {}
    direct = {}
    for module in compile_sources(app.sources).module_list():
        if module.name == drop_module:
            continue
        for routine in module.routine_list():
            facts = extract_routine_facts(routine)
            info = ModRefInfo()
            info.mod = set(facts.mod)
            info.ref = set(facts.ref)
            direct[routine.name] = info
            callees[routine.name] = facts.callees()
    return callees, direct


def test_synth_facts_graphs():
    for seed in (3, 5, 8):
        for drop_module in (None, "m1"):
            callees, direct = _facts_graph(seed, drop_module)
            assert_recursion_agrees(callees)
            assert_condensation_is_callees_first(callees)
            assert_modref_agrees(callees, direct)
            if drop_module is not None:
                solved = ModRefAnalysis.from_direct(direct, callees)
                assert any(info.unknown for info in solved.info.values())


def test_the_graph_the_old_search_gave_up_on():
    # A complete DAG over 150 routines has 11 175 edges and no cycle;
    # the per-routine search used to stop after 10 000 and assume the
    # worst.  Exact answers now, and the same mod/ref as the sweep.
    names = ["r%d" % i for i in range(150)]
    callees = {name: names[i + 1:] for i, name in enumerate(names)}
    assert sum(len(targets) for targets in callees.values()) > 10000
    direct = {}
    for i, name in enumerate(names):
        info = ModRefInfo()
        info.mod = {"g%d" % (i % 7)}
        direct[name] = info
    graph = _graph_of(callees)
    assert not any(graph.is_recursive(name) for name in names)
    assert_recursion_agrees(callees)
    assert_modref_agrees(callees, direct)
    assert len(strongly_connected_components(callees)) == len(names)
