"""Ownership is checked, not assumed.

A link borrows three things it does not own: the IL bodies of its input
objects (hashed once per object, so a body edited in place would poison
every later link), the machine routines resident in the incremental
state (every image shares their instructions), and the ``summ``/``mach``
blobs of modules it did not recompile.  After every shape of build the
suite knows, the objects must still hash to what the frontend made, the
resident routines must still encode to the bytes in the repository, and
relinking the very same objects must give the clean image again.

Under ``--hlo-checked`` the first of these is also asserted by
``Compiler.link_into`` itself at the end of every link in the suite.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.driver.build import BuildEngine
from repro.driver.compiler import Compiler, train
from repro.driver.options import CompilerOptions
from repro.hlo.options import HloOptions
from repro.incr.summary import ModuleSummary
from repro.linker.objects import (
    KIND_IL,
    encode_executable,
    encode_machine_routines,
)
from repro.memo import MemoMismatchError
from repro.naim.config import NaimConfig, NaimLevel
from repro.part.procexec import processes_supported
from repro.synth import WorkloadConfig, generate
from tests.incr.synth_edits import bump


def _app():
    return generate(WorkloadConfig(
        "owner", n_modules=8, routines_per_module=4, n_features=3,
        dispatch_count=40, input_size=16, seed=11,
    ))


def _image(result):
    return encode_executable(result.executable)


def _pristine(sources):
    """Fingerprint per module of IL no link has ever seen."""
    frontend = Compiler().frontend
    return {
        name: ModuleSummary.from_module(frontend(name, text)).fingerprint()
        for name, text in sources.items()
    }


def assert_objects_pristine(result, sources):
    expected = _pristine(sources)
    il_objects = [obj for obj in result.objects if obj.kind == KIND_IL]
    assert il_objects
    for obj in il_objects:
        rehashed = ModuleSummary.from_module(obj.il_module).fingerprint()
        assert rehashed == expected[obj.module_name], obj.module_name
        assert obj.summary().fingerprint() == rehashed
        obj.summary(checked=True)


def assert_resident_machines_match_blobs(state):
    assert state.machines
    for key, memo in state.machines.items():
        stored = bytes(state.repository.fetch("mach", key))
        assert encode_machine_routines(memo.value) == stored, key


# -- Cold builds, every execution shape ---------------------------------------

COLD_SHAPES = [
    pytest.param({}, id="serial"),
    pytest.param({"hlo_partitions": 3}, id="partitions-in-process"),
    pytest.param(
        {"hlo_jobs": 2, "hlo_partitions": 4, "hlo_backend": "processes"},
        id="processes",
        marks=pytest.mark.skipif(not processes_supported(),
                                 reason="no worker-process support"),
    ),
    pytest.param(
        {"naim": NaimConfig.pinned(NaimLevel.OFFLOAD, cache_pools=4)},
        id="naim-offload",
    ),
]


@pytest.mark.parametrize("shape", COLD_SHAPES)
def test_a_cold_build_leaves_its_objects_relinkable(shape):
    sources = dict(_app().sources)
    clean = _image(Compiler(CompilerOptions(opt_level=4)).build(sources))
    compiler = Compiler(CompilerOptions(opt_level=4, **shape))
    result = compiler.build(sources)
    assert _image(result) == clean
    assert_objects_pristine(result, sources)
    # The same objects, linked again: a body the first link edited in
    # place would be optimized twice here.
    again = compiler.link(result.objects)
    assert _image(again) == clean
    assert_objects_pristine(again, sources)


def test_selective_pbo_leaves_its_objects_relinkable():
    app = _app()
    sources = dict(app.sources)
    profile = train(sources, [app.make_input(seed=1)])
    compiler = Compiler(CompilerOptions(
        opt_level=4, pbo=True, selectivity_percent=20.0,
    ))
    result = compiler.build(sources, profile_db=profile)
    # Selectivity leaves modules outside CMO: LLO compiles those straight
    # from the borrowed bodies.
    assert result.plan is not None
    assert len(result.plan.cmo_modules) < len(sources)
    assert_objects_pristine(result, sources)
    again = compiler.link(result.objects, profile_db=profile)
    assert _image(again) == _image(result)
    assert_objects_pristine(again, sources)


# -- The warm engine ----------------------------------------------------------


def _warm_check(engine, sources):
    result, report = engine.build(sources)
    assert _image(result) == _image(
        Compiler(CompilerOptions(opt_level=4)).build(sources)
    )
    assert_objects_pristine(result, sources)
    assert_resident_machines_match_blobs(engine.incr_state)
    return result, report


def test_noop_rebuild_and_one_module_edit():
    sources = dict(_app().sources)
    engine = BuildEngine(CompilerOptions(opt_level=4), incremental=True)
    _warm_check(engine, sources)
    result, _ = _warm_check(engine, sources)
    assert result.incr_report.reoptimized == []
    victim = sorted(name for name in sources if name != "main")[2]
    sources[victim] = bump(sources[victim])
    result, _ = _warm_check(engine, sources)
    assert result.incr_report.reused and result.incr_report.reoptimized
    # And once more without an edit: the edit's link borrowed every
    # reused module's bodies.
    result, _ = _warm_check(engine, sources)
    assert result.incr_report.reoptimized == []


@given(edits=st.lists(
    st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
    min_size=8, max_size=8,
))
@settings(deadline=None, max_examples=3,
          suppress_health_check=[HealthCheck.too_slow])
def test_eight_seeded_edits(edits):
    sources = dict(_app().sources)
    names = sorted(name for name in sources if name != "main")
    engine = BuildEngine(CompilerOptions(opt_level=4), incremental=True)
    engine.build(sources)
    for module_pick, site_pick in edits:
        name = names[module_pick % len(names)]
        sources[name] = bump(sources[name], nth=site_pick)
        engine.build(sources)
    _warm_check(engine, sources)


def test_modeled_memory_does_not_depend_on_what_earlier_links_left(tmp_path):
    """A first link scans every body and leaves derived data on it; the
    next link of those objects must model the same bytes as a process
    that never scanned them.  (Both sides read their objects from disk,
    so they differ in nothing else.)"""
    sources = dict(_app().sources)
    victim = sorted(name for name in sources if name != "main")[2]
    options = CompilerOptions(opt_level=4)
    seed_dir, scanned_dir, fresh_dir = (
        str(tmp_path / name) for name in ("seed", "scanned", "fresh")
    )
    BuildEngine(options, state_dir=seed_dir).build(sources)
    shutil.copytree(os.path.join(seed_dir, "objects"),
                    os.path.join(scanned_dir, "objects"))

    scanned = BuildEngine(options, state_dir=scanned_dir)
    result, report = scanned.build(sources)  # objects reused, all scanned
    assert report.recompiled == [] and not result.incr_report.reused
    scanned.incr_state.repository.flush()
    shutil.copytree(scanned_dir, fresh_dir)

    sources[victim] = bump(sources[victim])
    scanned_result, _report = scanned.build(sources)
    fresh = BuildEngine(options, state_dir=fresh_dir)
    fresh_result, _ = fresh.build(sources)
    assert fresh_result.incr_report.reused
    assert scanned_result.accountant.peak == fresh_result.accountant.peak
    assert _image(scanned_result) == _image(fresh_result)
    scanned.incr_state.close()
    fresh.incr_state.close()


def test_a_state_dir_from_before_this_format_addition_is_reused_warm(tmp_path):
    """No epoch moved: an index written without the stored summary
    fingerprints and without a stored WPA outcome (every state dir older
    than them) is warm, links the clean image, and is written back with
    both; the next link applies the stored outcome."""
    sources = dict(_app().sources)
    victim = sorted(name for name in sources if name != "main")[2]
    state_dir = str(tmp_path / "state")
    options = CompilerOptions(opt_level=4)
    older = BuildEngine(options, incremental=True, state_dir=state_dir)
    older.build(sources)
    repository = older.incr_state.repository
    index = json.loads(bytes(repository.fetch("incr", "index")))
    assert index.pop("summary_fingerprints")
    assert index.pop("wpa")
    repository.store("incr", "index",
                      json.dumps(index, sort_keys=True).encode("utf-8"))
    repository.discard("wpa", "outcome")
    older.incr_state.close()

    sources[victim] = bump(sources[victim])
    engine = BuildEngine(options, incremental=True, state_dir=state_dir)
    result, _ = engine.build(sources)
    assert result.incr_report.reoptimized == [victim]
    assert len(result.incr_report.reused) == len(sources) - 1
    assert _image(result) == _image(Compiler(options).build(sources))
    # Nothing promised an outcome: an ordinary miss, no fallback event.
    assert result.incr_report.describe_wpa() == "decided (missing)"
    assert not [event for event in result.hlo_result.events
                if event.get("event") == "wpa-outcome-fallback"]
    index = json.loads(bytes(engine.incr_state.repository.fetch(
        "incr", "index"
    )))
    assert set(index["summary_fingerprints"]) == set(sources)
    assert index["wpa"]

    sources[victim] = bump(sources[victim])
    result, _ = engine.build(sources)
    assert result.incr_report.wpa == "reused"
    assert result.incr_report.reoptimized == [victim]
    assert _image(result) == _image(Compiler(options).build(sources))
    engine.incr_state.close()


# -- The check itself ---------------------------------------------------------


def test_a_checked_link_reports_a_mutated_borrowed_body(monkeypatch):
    """The guard guards: make the scalar phase skip privatisation and a
    checked link must refuse, not hand the poisoned objects back."""
    from repro.naim.loader import Loader

    monkeypatch.setattr(Loader, "privatize", lambda self, handle: None)
    sources = dict(_app().sources)
    compiler = Compiler(CompilerOptions(
        opt_level=4, hlo=HloOptions(checked=True),
    ))
    with pytest.raises(MemoMismatchError, match="object summary"):
        compiler.build(sources)
