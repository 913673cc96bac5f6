"""Cost guards for the edit-compile cycle: counts, not timings.

After a one-module edit on a warm :class:`BuildEngine`, the work done
*around* the whole-program analysis must track what the edit touched:
no cached machine code is decoded again, only the recompiled object is
summarised, plan replay stays inside the import closure of what will be
compiled, and the call graph is condensed once however often it is
asked about recursion.  Nor is anything copied, re-encoded or re-parsed
in defence: the linker copies only the relocation sites of routines
whose relocation environment changed, object IL is copied only inside
the replay scope, facts are serialised and summaries and ``summ`` blobs
parsed only for what changed, and no link walks the IL of an object it
already checked.  A link that applies the stored WPA outcome the last
link applied copies, solves and parses none of it again, sizes no
unchanged body by walking it, and stores only the index pieces that
changed.  Each assertion fails on the code it replaced (decode per
reused module, hash per module, whole-unit replay, one search per
callee, a copy per instruction or per site, a deep copy per object, a
``summ`` re-encode or re-parse per module, a summary parse per module,
an interface walk per link, a facts copy per routine and a mod/ref
solution per link, a walk per body, an index store per link).
"""

from __future__ import annotations

import json

import pytest

import repro.driver.compiler as compiler_module
import repro.hlo.driver as hlo_driver
import repro.incr.state as incr_state
import repro.ir.callgraph as callgraph
import repro.naim.loader as loader_module
from repro.driver.build import BuildEngine
from repro.driver.compiler import Compiler
from repro.driver.options import CompilerOptions
from repro.hlo.analysis.modref import ModRefAnalysis
from repro.hlo.profile_view import ProfileView
from repro.hlo.thin import WpaOutcome
from repro.incr.summary import ModuleSummary, RoutineFacts
from repro.ir.routine import Routine
from repro.linker.objects import encode_executable
from repro.memo import Memo
from repro.naim.pools import KIND_IR
from repro.vm.isa import RELOCATED_OPS, MInstr
from repro.synth import WorkloadConfig, generate
from synth_edits import bump, bump_call_argument


class Counter:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def uncounted_list(monkeypatch, recorded):
    """Wrap :meth:`Memo.verify` so that what it appends to ``recorded``
    while it runs is taken out again (the extra work of a checked link:
    every memo it hits is derived again, to compare)."""
    real = Memo.verify

    def wrapper(*args, **kwargs):
        before = len(recorded)
        try:
            return real(*args, **kwargs)
        finally:
            del recorded[before:]

    monkeypatch.setattr(Memo, "verify", wrapper)


def uncounted(monkeypatch, counters):
    """Wrap :meth:`Memo.verify` so that calls the ``counters`` see while
    it runs are not counted (the extra work of a checked link)."""
    real = Memo.verify

    def wrapper(*args, **kwargs):
        before = [counter.calls for counter in counters]
        try:
            return real(*args, **kwargs)
        finally:
            for counter, calls in zip(counters, before):
                counter.calls = calls

    monkeypatch.setattr(Memo, "verify", wrapper)


@pytest.fixture
def warm():
    """A warm engine two builds in, and the sources of a third: one more
    edit of one module that is not ``main``."""
    app = generate(WorkloadConfig(
        "guard", n_modules=8, routines_per_module=4, n_features=3,
        dispatch_count=40, input_size=16, seed=11,
    ))
    sources = dict(app.sources)
    victim = sorted(name for name in sources if name != "main")[2]
    engine = BuildEngine(CompilerOptions(opt_level=4), incremental=True)
    engine.build(sources)
    sources[victim] = bump(sources[victim])
    engine.build(sources)
    sources[victim] = bump(sources[victim])
    return engine, sources, victim


def test_an_edit_decodes_no_cached_machine_code(warm, monkeypatch):
    engine, sources, _victim = warm
    decode = Counter(incr_state.decode_machine_routines)
    monkeypatch.setattr(incr_state, "decode_machine_routines", decode)
    # A checked link decodes every blob it kept again, to compare.
    uncounted(monkeypatch, [decode])
    result, report = engine.build(sources)
    assert report.cmo_reused and report.cmo_reoptimized
    assert decode.calls == 0
    clean = Compiler(CompilerOptions(opt_level=4)).build(sources)
    assert encode_executable(result.executable) == (
        encode_executable(clean.executable)
    )


def test_an_edit_summarises_only_the_recompiled_object(warm, monkeypatch):
    engine, sources, victim = warm
    summarise = Counter(ModuleSummary.from_module)
    monkeypatch.setattr(ModuleSummary, "from_module", staticmethod(summarise))
    # A checked link re-hashes every object it borrowed, by design.
    uncounted(monkeypatch, [summarise])
    result, report = engine.build(sources)
    assert report.recompiled == [victim]
    assert summarise.calls == 1
    assert result.incr_report.changed_modules == [victim]


def test_replay_expands_nothing_outside_the_import_closure(warm, monkeypatch):
    engine, sources, _victim = warm
    touched = set()
    real_replay = hlo_driver.replay_plan

    def watched_replay(plan, scope, loader, *rest):
        real_touch = loader.touch

        def touch(pool):
            if pool.kind == KIND_IR:
                touched.add(pool.name)
            return real_touch(pool)

        loader.touch = touch
        try:
            return real_replay(plan, scope, loader, *rest)
        finally:
            del loader.touch

    monkeypatch.setattr(hlo_driver, "replay_plan", watched_replay)
    result, _report = engine.build(sources)
    hlo = result.hlo_result
    assert hlo.reused_modules
    compiled = set(hlo.compiled_routines())
    need = hlo.plan.import_closure()
    closure = set().union(*(need(name) for name in compiled))
    assert touched, "the plan replayed nothing: the guard guards nothing"
    assert touched <= compiled | closure
    # The edit leaves most of the program alone, and so does replay.
    reused_routines = set(hlo.unit.routine_names()) - compiled
    assert reused_routines - closure
    assert not touched & (reused_routines - closure)


def test_one_callgraph_build_costs_one_scc_pass(warm, monkeypatch):
    engine, sources, victim = warm
    # A link that decides builds the call graph: pass a new constant, so
    # the facts change and the stored WPA outcome does not apply.
    sources[victim] = bump_call_argument(sources[victim])
    condense = Counter(callgraph.strongly_connected_components)
    monkeypatch.setattr(callgraph, "strongly_connected_components", condense)
    build = Counter(hlo_driver.build_callgraph)
    read = []  # the facts each build reads (the WPA's, to the last)

    def build_callgraph(facts_by_name):
        read.append(facts_by_name)
        return build(facts_by_name)

    monkeypatch.setattr(hlo_driver, "build_callgraph", build_callgraph)
    result, _report = engine.build(sources)
    assert result.incr_report.wpa == "decided"
    assert result.hlo_result.inline_stats.performed
    assert 1 <= condense.calls <= build.calls

    graph = hlo_driver.build_callgraph(read[-1])
    condense.calls = 0
    for _ in range(2):
        for name in graph.nodes:
            graph.is_recursive(name)
    assert condense.calls == 1


def _clean_image(sources):
    return encode_executable(
        Compiler(CompilerOptions(opt_level=4)).build(sources).executable
    )


def _relocation_environment(routine, image):
    """What relocating ``routine`` into ``image`` reads: its base, and
    per symbolic site the callee's base or the global's address and,
    for an array access, its size."""
    calls, data, sized = routine.reloc_symbols()
    meta = image.routine_meta
    return (
        meta[routine.name].addr,
        *(meta[name].addr for name in calls),
        *(image.data_addr[name] for name in data),
        *(image.data_size[name] for name in sized),
    )


def _watch_linked_routines(monkeypatch):
    """Record each routine the next link places, with the environment
    its relocation memo was made for (a sentinel: never linked)."""
    placed = []
    real_build_image = compiler_module.build_image

    def build_image(machine_routines, *args, **kwargs):
        placed.extend((routine, routine.linked.key)
                      for routine in machine_routines)
        return real_build_image(machine_routines, *args, **kwargs)

    monkeypatch.setattr(compiler_module, "build_image", build_image)
    return placed


def _count_copies(monkeypatch):
    copied = []
    real_copy = MInstr.copy

    def copy(self):
        copied.append(self.op)
        return real_copy(self)

    monkeypatch.setattr(MInstr, "copy", copy)
    # A checked link relocates every memoized routine again, to compare.
    uncounted_list(monkeypatch, copied)
    return copied


def test_the_linker_copies_relocation_sites_only(warm, monkeypatch):
    """Only the relocation sites of routines whose relocation
    environment changed are copied: new machine code, and code whose
    base, callee bases or globals moved."""
    engine, sources, _victim = warm
    placed = _watch_linked_routines(monkeypatch)
    copied = _count_copies(monkeypatch)
    result, report = engine.build(sources)
    assert report.cmo_reused
    image = result.executable
    # The startup stub's call is the linker's own: patched, not copied.
    sites = sum(1 for instr in image.code[1:] if instr.op in RELOCATED_OPS)
    assert 0 < sites < len(image.code) - 2
    moved = sum(
        len(routine.reloc_sites()) for routine, before in placed
        if before != _relocation_environment(routine, image)
    )
    assert 0 < moved < sites
    assert len(copied) == moved
    assert set(copied) <= set(RELOCATED_OPS)
    assert encode_executable(image) == _clean_image(sources)


def _count_applied_wpa_work(monkeypatch, engine):
    """Counters of what applying the stored WPA outcome re-derives:
    facts copies, profile-view copies, mod/ref solutions, outcome
    parses, instruction walks (by routine) and repository stores (by
    kind).  The checked-link extras that derive, decide, size or hash
    again beside the link are not counted."""
    counters = {
        "RoutineFacts.copy": Counter(RoutineFacts.copy),
        "ProfileView.copy": Counter(ProfileView.copy),
        "ModRefAnalysis.from_direct": Counter(ModRefAnalysis.from_direct),
        "WpaOutcome.from_dict": Counter(WpaOutcome.from_dict),
    }
    for label in ("RoutineFacts.copy", "ProfileView.copy"):
        owner = RoutineFacts if label.startswith("R") else ProfileView
        monkeypatch.setattr(
            owner, "copy",
            lambda *args, counter=counters[label], **kwargs:
            counter(*args, **kwargs),
        )
    for owner, label in ((ModRefAnalysis, "ModRefAnalysis.from_direct"),
                         (WpaOutcome, "WpaOutcome.from_dict")):
        monkeypatch.setattr(owner, label.split(".")[1],
                            staticmethod(counters[label]))
    walked = []
    real_instr_count = Routine.instr_count

    def instr_count(self):
        walked.append(self.name)
        return real_instr_count(self)

    monkeypatch.setattr(Routine, "instr_count", instr_count)
    repository = engine.incr_state.repository
    stored = []
    real_store = repository.store

    def store(kind, name, data):
        stored.append(kind)
        return real_store(kind, name, data)

    monkeypatch.setattr(repository, "store", store)
    extras = [(Memo, "verify"), (loader_module, "_verify_size")]
    for owner, name in extras:
        real = getattr(owner, name)

        def extra(*args, real=real, **kwargs):
            before = [counter.calls for counter in counters.values()]
            walks = len(walked)
            try:
                return real(*args, **kwargs)
            finally:
                for counter, calls in zip(counters.values(), before):
                    counter.calls = calls
                del walked[walks:]

        monkeypatch.setattr(owner, name, extra)
    return counters, walked, stored


def test_a_no_op_rebuild_copies_parses_and_walks_nothing(warm, monkeypatch):
    """Relinking what the last link linked reuses every relocated copy,
    every parsed ``summ`` blob, every object's interface table, what
    applying the stored WPA outcome gave and every body's size, and
    stores nothing."""
    from repro.ir.basic_block import BasicBlock

    engine, sources, _victim = warm
    engine.build(sources)  # the fixture's edit rewrites one summ blob
    engine.build(sources)  # which this link parses
    copied = _count_copies(monkeypatch)
    parse = Counter(RoutineFacts.from_dict)
    monkeypatch.setattr(RoutineFacts, "from_dict", staticmethod(parse))
    walks = Counter(BasicBlock.calls)
    monkeypatch.setattr(BasicBlock, "calls", lambda *args: walks(*args))
    # A checked link parses every resident blob again, to compare.
    uncounted(monkeypatch, [parse, walks])
    counters, walked, stored = _count_applied_wpa_work(monkeypatch, engine)
    result, report = engine.build(sources)
    assert report.recompiled == [] and report.cmo_reoptimized == []
    assert result.incr_report.wpa == "reused"
    assert (len(copied), parse.calls, walks.calls) == (0, 0, 0)
    assert {label: counter.calls for label, counter in counters.items()} == (
        dict.fromkeys(counters, 0)
    )
    hlo = result.hlo_result
    scope = hlo.plan.replay_scope(hlo.compiled_routines())
    assert [name for name in walked if name not in scope] == []
    assert stored == []
    assert encode_executable(result.executable) == _clean_image(sources)


def test_a_fact_preserving_edit_copies_facts_and_views_of_the_replay_scope_only(
        warm, monkeypatch):
    """An edit that leaves every routine's facts alone takes what
    applying the stored WPA outcome gave from the last link: no facts
    copy, parse or mod/ref solution for the modules it did not touch;
    what replay and the scalar passes edit (the views of the replay
    scope) is copied, nothing else; and only the edited module's index
    entries change."""
    engine, sources, victim = warm
    texts = engine.incr_state.summary_texts
    encoded = {name: memo.value for name, memo in texts.items()}
    counters, walked, stored = _count_applied_wpa_work(monkeypatch, engine)
    result, report = engine.build(sources)
    assert result.incr_report.wpa == "reused"
    assert report.recompiled == [victim]
    assert [name for name, memo in texts.items()
            if memo.value is not encoded.get(name)] == [victim]
    hlo = result.hlo_result
    scope = hlo.plan.replay_scope(hlo.compiled_routines())
    assert scope, "the edit compiles nothing: the guard guards nothing"
    assert counters["RoutineFacts.copy"].calls <= len(scope)
    assert 0 < counters["ProfileView.copy"].calls <= len(scope)
    assert counters["ModRefAnalysis.from_direct"].calls == 0
    assert counters["WpaOutcome.from_dict"].calls == 0
    assert stored.count("incr") == 1
    assert encode_executable(result.executable) == _clean_image(sources)


def test_the_index_is_the_text_json_would_write(warm):
    """What ``commit`` stores is ``json.dumps(index, sort_keys=True)``,
    assembled from the pieces it keeps, so a compiler that writes it in
    one piece reads it, and writes the same bytes."""
    from repro.incr.summary import SUMMARY_FORMAT
    from repro.sched.artifacts import PIPELINE_EPOCH

    engine, sources, _victim = warm
    engine.build(sources)
    state = engine.incr_state
    index = {
        "epoch": PIPELINE_EPOCH,
        "format": SUMMARY_FORMAT,
        "options_fp": state.options_fp,
        "summaries": state.summaries,
        "summary_fingerprints": state.summary_fingerprints,
        "module_keys": state.module_keys,
        "wpa": state.wpa_digest,
    }
    expected = json.dumps(index, sort_keys=True).encode("utf-8")
    assert bytes(state.repository.fetch("incr", "index")) == expected
    assert state.index_bytes() == expected


def test_a_link_parses_only_the_summ_blob_the_last_link_rewrote(
        warm, monkeypatch):
    """A one-module, length-preserving edit rewrites that module's
    ``summ`` blob; the next link parses that blob and no other."""
    engine, sources, victim = warm
    engine.build(sources)  # the fixture's edit rewrites victim's blob
    other = sorted(name for name in sources
                   if name not in (victim, "main"))[0]
    sources[other] = bump(sources[other])
    parsed = []
    real_from_dict = RoutineFacts.from_dict

    def from_dict(data):
        parsed.append(data["module"])
        return real_from_dict(data)

    monkeypatch.setattr(RoutineFacts, "from_dict", staticmethod(from_dict))
    uncounted_list(monkeypatch, parsed)
    for edited, rewrote in ((other, victim), (None, other)):
        del parsed[:]
        result, report = engine.build(sources)
        assert result.incr_report.changed_modules == (
            [edited] if edited else []
        )
        expected = len(engine.incr_state.parsed_facts[rewrote].value)
        assert parsed == [rewrote] * expected
        assert encode_executable(result.executable) == _clean_image(sources)


def test_object_il_is_copied_only_inside_the_replay_scope(warm, monkeypatch):
    engine, sources, _victim = warm
    privatised = []
    real_copy = Routine.copy

    def copy(self, new_name=None):
        if new_name is None:  # a clone is a new routine, not a defence
            privatised.append(self.name)
        return real_copy(self, new_name)

    monkeypatch.setattr(Routine, "copy", copy)
    result, _report = engine.build(sources)
    hlo = result.hlo_result
    assert hlo.reused_modules
    scope = hlo.plan.replay_scope(hlo.compiled_routines())
    assert privatised, "nothing was privatised: the guard guards nothing"
    assert len(privatised) == len(set(privatised)) <= len(scope)
    assert set(privatised) <= scope
    outside = set(hlo.unit.routine_names()) - scope
    assert outside, "the edit's scope is the whole program"
    assert encode_executable(result.executable) == _clean_image(sources)


def _damage_delete(repository, module):
    repository.discard("summ", module)


def _damage_bit_flip(repository, module):
    # The high bit of any byte of a JSON document leaves no valid UTF-8.
    blob = bytearray(repository.fetch("summ", module))
    blob[len(blob) // 2] ^= 0x80
    repository.store("summ", module, bytes(blob))


def _damage_drop_a_field(repository, module):
    # Still JSON, still the right format and fingerprint: not facts.
    data = json.loads(bytes(repository.fetch("summ", module)))
    del data["routines"][0]["instrs"]
    repository.store("summ", module, json.dumps(data).encode("utf-8"))


@pytest.mark.parametrize("damage, reason", [
    pytest.param(None, None, id="intact"),
    pytest.param(_damage_delete, "missing", id="deleted"),
    pytest.param(_damage_bit_flip, "corrupt", id="bit-flipped"),
    pytest.param(_damage_drop_a_field, "corrupt", id="field-dropped"),
])
def test_facts_are_serialised_for_scanned_modules_only(
        warm, monkeypatch, damage, reason):
    """Only the edited module's facts are encoded and stored; a module
    whose ``summ`` blob was lost or damaged between builds is scanned
    again, says so, and gets its blob back."""
    engine, sources, victim = warm
    repository = engine.incr_state.repository
    expected = {victim}
    if damage is not None:
        target = sorted(
            name for name in sources if name not in (victim, "main")
        )[0]
        damage(repository, target)
        expected.add(target)

    serialised = []
    real_to_dict = RoutineFacts.to_dict

    def to_dict(self):
        serialised.append(self.module)
        return real_to_dict(self)

    monkeypatch.setattr(RoutineFacts, "to_dict", to_dict)
    # A checked link compares resident facts with a fresh parse, and the
    # resident applied WPA state with a fresh application.
    uncounted_list(monkeypatch, serialised)
    stored = []
    real_store = repository.store

    def store(kind, name, data):
        stored.append((kind, name))
        return real_store(kind, name, data)

    monkeypatch.setattr(repository, "store", store)
    result, _report = engine.build(sources)
    assert set(serialised) == expected
    assert sorted(n for kind, n in stored if kind == "summ") == sorted(expected)
    fallbacks = [event for event in result.hlo_result.events
                 if event.get("event") == "summary-fallback"]
    if damage is None:
        assert not fallbacks
    else:
        assert fallbacks == [{"event": "summary-fallback",
                              "module": target, "reason": reason}]
        assert repository.contains("summ", target)
    assert encode_executable(result.executable) == _clean_image(sources)

    # The next link finds every blob in place again.
    del serialised[:]
    result, report = engine.build(sources)
    assert not serialised
    assert report.cmo_reoptimized == []
    assert not [event for event in result.hlo_result.events
                if event.get("event") == "summary-fallback"]


def test_begin_link_parses_no_stored_summary(warm, monkeypatch):
    engine, sources, victim = warm
    parse = Counter(ModuleSummary.from_dict)
    monkeypatch.setattr(ModuleSummary, "from_dict", staticmethod(parse))
    result, _report = engine.build(sources)
    assert result.incr_report.changed_modules == [victim]
    assert parse.calls == 0


# -- The stored WPA outcome ----------------------------------------------------


def test_a_fact_preserving_edit_decides_nothing(warm, monkeypatch):
    """The edit leaves every routine's facts as they were: the link
    applies the stored WPA outcome, so no decision procedure runs, only
    the modules the edit reaches are keyed again, and no outcome is
    stored (the one in the repository is this link's)."""
    import repro.hlo.transforms.ipcp as ipcp
    from repro.hlo.transforms.inline import InlineEngine

    engine, sources, _victim = warm
    deciders = {
        "reachable_routines": (hlo_driver, "reachable_routines"),
        "gather_param_constants": (ipcp, "gather_param_constants"),
        "plan_clones": (hlo_driver, "plan_clones"),
    }
    counters = {}
    for label, (owner, name) in deciders.items():
        counters[label] = Counter(getattr(owner, name))
        monkeypatch.setattr(owner, name, counters[label])
    counters["InlineEngine.run"] = Counter(InlineEngine.run)
    monkeypatch.setattr(InlineEngine, "run",
                        lambda *args: counters["InlineEngine.run"](*args))
    counters["build_callgraph"] = Counter(hlo_driver.build_callgraph)
    monkeypatch.setattr(hlo_driver, "build_callgraph",
                        counters["build_callgraph"])
    keyed = []
    keys = Counter(hlo_driver.compute_module_keys)

    def compute_module_keys(*args, **kwargs):
        keyed.append(kwargs.get("modules"))
        return keys(*args, **kwargs)

    monkeypatch.setattr(hlo_driver, "compute_module_keys",
                        compute_module_keys)
    # A checked link also decides, to compare: that is not this link's.
    uncounted(monkeypatch, list(counters.values()) + [keys])
    repository = engine.incr_state.repository
    stored = []
    real_store = repository.store

    def store(kind, name, data):
        stored.append(kind)
        return real_store(kind, name, data)

    monkeypatch.setattr(repository, "store", store)
    result, report = engine.build(sources)
    assert result.incr_report.wpa == "reused"
    assert {label: counter.calls for label, counter in counters.items()} == (
        dict.fromkeys(counters, 0)
    )
    assert keys.calls == 1
    assert keyed[0] == set(report.cmo_reoptimized)
    assert report.cmo_reused
    assert "wpa" not in stored
    assert encode_executable(result.executable) == _clean_image(sources)


def _wpa_blob(repository):
    head, _newline, body = bytes(
        repository.fetch("wpa", "outcome")
    ).partition(b"\n")
    return json.loads(head), body


def _damage_wpa_delete(repository):
    repository.discard("wpa", "outcome")


def _damage_wpa_bit_flip(repository):
    blob = bytearray(repository.fetch("wpa", "outcome"))
    blob[len(blob) // 2] ^= 0x80
    repository.store("wpa", "outcome", bytes(blob))


def _damage_wpa_drop_a_field(repository):
    header, body = _wpa_blob(repository)
    outcome = json.loads(body)
    del outcome["inline_stats"]
    repository.store("wpa", "outcome", json.dumps(header).encode("utf-8")
                     + b"\n" + json.dumps(outcome).encode("utf-8"))


def _damage_wpa_stale_digest(repository):
    # Well formed, but stored for inputs this link does not have.
    header, body = _wpa_blob(repository)
    header["digest"] = "0" * 16
    repository.store("wpa", "outcome",
                     json.dumps(header).encode("utf-8") + b"\n" + body)


@pytest.mark.parametrize("damage, reason, event", [
    pytest.param(_damage_wpa_delete, "missing", True, id="deleted"),
    pytest.param(_damage_wpa_bit_flip, "corrupt", True, id="bit-flipped"),
    pytest.param(_damage_wpa_drop_a_field, "corrupt", True,
                 id="field-dropped"),
    pytest.param(_damage_wpa_stale_digest, "stale", False,
                 id="digest-stale"),
])
def test_a_lost_or_damaged_wpa_outcome_is_decided_again(
        warm, damage, reason, event):
    """The link whose stored outcome was lost, damaged or is not its own
    runs the full WPA, links the clean image and writes the outcome
    back; a blob the index promised and the link cannot read says so."""
    engine, sources, _victim = warm
    repository = engine.incr_state.repository
    damage(repository)
    result, report = engine.build(sources)
    assert result.incr_report.wpa == "decided"
    assert result.incr_report.wpa_reason == reason
    fallbacks = [e for e in result.hlo_result.events
                 if e.get("event") == "wpa-outcome-fallback"]
    assert fallbacks == ([{"event": "wpa-outcome-fallback",
                           "reason": reason}] if event else [])
    assert report.cmo_reused
    assert encode_executable(result.executable) == _clean_image(sources)
    assert repository.contains("wpa", "outcome")

    result, report = engine.build(sources)
    assert result.incr_report.wpa == "reused"
    assert report.cmo_reoptimized == []
    assert not [e for e in result.hlo_result.events
                if e.get("event") == "wpa-outcome-fallback"]
