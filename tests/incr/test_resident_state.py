"""Resident state must not hide damage.

Between links a warm :class:`BuildEngine` keeps, each as a
:class:`~repro.memo.Memo` under the exact input it came from, the facts
it parsed from each ``summ`` blob, the parsed and the applied WPA
outcome, the decoded machine routines, each machine routine's relocated
copies, each object's summary and interface table, and the encoded
pieces of the index.  One table checks every memo: a link with equal
inputs hands out the kept value, a link whose input moved derives it
again, and a checked link finds a tampered value.  The other rows damage
or change what a memo was made from, on one warm engine, and expect the
link to notice: a structured event or error, and the image (or the
error) a cold build of the same sources gives.  The pack repository
under a state dir checks every entry's frame CRC on fetch, so a flipped
byte that would still decode is noticed too.
"""

from __future__ import annotations

import glob
import json
import os
import re

import pytest

from repro.driver import train
from repro.driver.build import BuildEngine, BuildError
from repro.driver.compiler import Compiler
from repro.driver.options import CompilerOptions
from repro.hlo.driver import HighLevelOptimizer
from repro.hlo.options import HloOptions
from repro.linker.objects import LinkError, encode_executable
from repro.memo import Memo, MemoMismatchError
from repro.naim.packfile import FLAG_COMPRESSED
from repro.naim.repository import RepositoryError
from repro.synth import WorkloadConfig, generate
from repro.vm.isa import RELOCATED_OPS, MInstr, MOp
from synth_edits import add_statement, bump, delete_uncalled_routine

OPTIONS = CompilerOptions(opt_level=4)
_ROUTINE = re.compile(r"^func (\w+)\((.*?)\)", re.MULTILINE)


def _sources():
    return dict(generate(WorkloadConfig(
        "resident", n_modules=6, routines_per_module=4, n_features=3,
        dispatch_count=40, input_size=16, seed=23,
    )).sources)


def _cold(sources):
    return Compiler(OPTIONS).build(sources)


def _warm_engine(sources, options=OPTIONS, **kwargs):
    """An engine that has linked ``sources`` twice: every ``summ`` blob
    is parsed and resident, every routine has its relocated copies."""
    engine = BuildEngine(options, incremental=True, **kwargs)
    engine.build(sources)
    engine.build(sources)
    return engine


def _flip_a_byte_on_disk(repository, kind, name):
    repository.flush()
    segment, entry = repository._located[(kind, name)]
    with open(segment.path, "r+b") as handle:
        handle.seek(entry.payload_offset + entry.stored_len // 2)
        byte = handle.read(1)[0]
        handle.seek(-1, 1)
        handle.write(bytes([byte ^ 0x80]))


def test_a_flipped_byte_in_an_on_disk_summ_entry_is_reported(tmp_path):
    sources = _sources()
    engine = _warm_engine(sources, state_dir=str(tmp_path / "state"))
    target = sorted(name for name in sources if name != "main")[1]
    assert target in engine.incr_state.parsed_facts
    _flip_a_byte_on_disk(engine.incr_state.repository, "summ", target)

    result, _report = engine.build(sources)
    fallbacks = [event for event in result.hlo_result.events
                 if event.get("event") == "summary-fallback"]
    assert fallbacks == [{"event": "summary-fallback", "module": target,
                          "reason": "corrupt"}]
    assert encode_executable(result.executable) == (
        encode_executable(_cold(sources).executable)
    )
    # The scan re-stored the blob, and the next link reads it cleanly.
    result, _report = engine.build(sources)
    assert not [event for event in result.hlo_result.events
                if event.get("event") == "summary-fallback"]
    engine.incr_state.close()


@pytest.mark.parametrize("position", ["first", "middle"])
def test_lengthening_a_routine_moves_every_base_after_it(
        monkeypatch, position):
    """Every routine after the lengthened one moves, and so does every
    call into them from before it: no relocated copy of either may be
    reused.  Lengthening the first routine leaves nothing to reuse."""
    sources = _sources()
    engine = _warm_engine(sources)
    before = engine.build(sources)[0].executable
    placed = sorted(before.routine_meta.values(), key=lambda meta: meta.addr)
    module = placed[0].name.split("_")[0] if position == "first" else (
        placed[len(placed) // 2].name.split("_")[0]
    )
    assert module in sources
    edited = dict(sources)
    edited[module] = add_statement(sources[module])

    copied = []
    real_copy = MInstr.copy

    def copy(self):
        copied.append(self.op)
        return real_copy(self)

    monkeypatch.setattr(MInstr, "copy", copy)
    real_verify = Memo.verify

    def verify(*args):
        # A checked link relocates every reused routine again, to compare.
        before = len(copied)
        real_verify(*args)
        del copied[before:]

    monkeypatch.setattr(Memo, "verify", verify)
    result, _report = engine.build(edited)
    image = result.executable
    moved = [meta for meta in image.routine_meta.values()
             if meta.addr != before.routine_meta[meta.name].addr]
    assert moved
    sites = sum(1 for instr in image.code[1:] if instr.op in RELOCATED_OPS)
    if position == "first":
        assert len(copied) == sites
    else:
        assert 0 < len(copied) < sites
    assert encode_executable(image) == (
        encode_executable(_cold(edited).executable)
    )


def _called_routine(sources):
    """(module, routine, parameter text) of a routine another module
    calls."""
    for module, text in sorted(sources.items()):
        for match in _ROUTINE.finditer(text):
            name = match.group(1)
            if name != "main" and any(
                re.search(r"\b%s\(" % name, other)
                for other_module, other in sources.items()
                if other_module != module
            ):
                return module, name, match
    raise AssertionError("no cross-module call")


def test_deleting_a_routine_a_reused_caller_calls_is_a_link_error():
    sources = _sources()
    engine = _warm_engine(sources)
    module, name, _match = _called_routine(sources)
    routine = re.compile(r"^func %s\(.*?^}\n" % name, re.M | re.S)
    edited = dict(sources)
    edited[module] = routine.sub("", sources[module], count=1)

    with pytest.raises(LinkError) as cold:
        _cold(edited)
    with pytest.raises(BuildError) as warm:
        engine.build(edited)
    assert str(warm.value.failures["link"]) == str(cold.value)
    assert "unresolved routine %s" % name in str(cold.value)


def test_a_changed_arity_is_reported_against_reused_callers():
    sources = _sources()
    engine = _warm_engine(sources)
    module, name, match = _called_routine(sources)
    params = match.group(2)
    text = sources[module]
    edited = dict(sources)
    edited[module] = "%s%s%s" % (
        text[:match.start(2)], params + ", extra" if params else "extra",
        text[match.end(2):],
    )

    cold = _cold(edited)
    assert cold.interface_problems
    assert all(" calls %s " % name in problem
               for problem in cold.interface_problems)
    result, report = engine.build(edited)
    assert module in report.recompiled
    assert result.interface_problems == cold.interface_problems
    assert encode_executable(result.executable) == (
        encode_executable(cold.executable)
    )


def test_a_link_that_merges_blocks_leaves_the_resident_views_alone(
        monkeypatch):
    """A module re-optimized because of another one's edit gets its
    facts and profile views from the resident parse and the applied WPA
    state; its scalar passes merge blocks in the profile views.  They
    must do it in the link's copies."""
    from repro.hlo.profile_view import ProfileView

    sources = dict(generate(WorkloadConfig(
        "guard", n_modules=8, routines_per_module=4, n_features=3,
        dispatch_count=40, input_size=16, seed=11,
    )).sources)
    engine = _warm_engine(sources)
    resident = [memo.value for memo in engine.incr_state.parsed_facts.values()]
    applied = engine.incr_state.applied_wpa.value

    def views():
        kept = [facts.view for parsed in resident for facts in parsed]
        kept += [facts.view for facts in applied.facts.values()]
        kept += list(applied.views.values())
        return {
            (id(view), view.routine_name): (dict(view.block_counts),
                                            dict(view.edge_counts))
            for view in kept
        }

    before = views()
    merged = []
    real_merge = ProfileView.merge_blocks

    def merge_blocks(self, survivor, absorbed):
        merged.append(self.routine_name)
        return real_merge(self, survivor, absorbed)

    monkeypatch.setattr(ProfileView, "merge_blocks", merge_blocks)
    sources["m3"] = bump(sources["m3"])
    result, report = engine.build(sources)
    assert "m2" in report.cmo_reoptimized, "no resident module re-optimized"
    assert engine.incr_state.applied_wpa.value is applied
    assert set(merged) & {name for _id, name in before}, (
        "no resident view was merged into"
    )
    assert views() == before
    assert encode_executable(result.executable) == (
        encode_executable(_cold(sources).executable)
    )


# -- One table over every memo --------------------------------------------
#
# Each row names a memo of a warm engine and one case: a link with equal
# inputs hands out the kept value (``hit``); a link whose input moved
# derives it again and links the cold image; a checked link finds the
# kept value tampered with and raises ``MemoMismatchError`` naming the
# memo and the field, and links the cold image once it is restored.


def _target(sources):
    return sorted(name for name in sources if name != "main")[0]


def _summ_facts(engine, sources):
    return engine.incr_state.parsed_facts[_target(sources)]


def _stored_wpa(engine, _sources):
    return engine.incr_state.stored_wpa


def _applied_wpa(engine, _sources):
    return engine.incr_state.applied_wpa


def _machine_routines(engine, sources):
    state = engine.incr_state
    return state.machines[state.module_keys[_target(sources)]]


def _relocated_code(engine, sources):
    """The memo of the first resident routine, by name, outside the
    target module that calls another one."""
    return min(
        (machine for memo in engine.incr_state.machines.values()
         for machine in memo.value
         if machine.source_module != _target(sources)
         and machine.reloc_symbols()[0]),
        key=lambda machine: machine.name,
    ).linked


def _object_summary(engine, sources):
    return engine._cache[_target(sources)][1]._summary


def _object_interface(engine, sources):
    return engine._cache[_target(sources)][1]._interface


def _summary_text(engine, sources):
    return engine.incr_state.summary_texts[_target(sources)]


def _index_text(engine, _sources):
    return engine.incr_state.index_text


# What moves a memo's input: each returns the sources to link next.

def _reformat_the_summ_blob(engine, sources):
    repository = engine.incr_state.repository
    data = json.loads(bytes(repository.fetch("summ", _target(sources))))
    repository.store("summ", _target(sources),
                     json.dumps(data, indent=1).encode("utf-8"))
    return sources


def _reformat_the_wpa_header(engine, sources):
    repository = engine.incr_state.repository
    head, _newline, body = bytes(
        repository.fetch("wpa", "outcome")
    ).partition(b"\n")
    repository.store("wpa", "outcome", json.dumps(
        json.loads(head), separators=(",", ":")
    ).encode("utf-8") + b"\n" + body)
    return sources


def _discard_the_mach_blob(engine, sources):
    state = engine.incr_state
    state.repository.discard("mach", state.module_keys[_target(sources)])
    return sources


def _lengthen_the_first_module(_engine, sources):
    edited = dict(sources)
    edited[_target(sources)] = add_statement(sources[_target(sources)])
    return edited


def _edit_the_target(_engine, sources):
    edited = dict(sources)
    edited[_target(sources)] = bump(sources[_target(sources)])
    return edited


# What tampers with a kept value: each returns (undo, the field a
# checked link names).

def _tamper_facts(memo):
    facts = memo.value[0]
    facts.instr_count += 1

    def undo():
        facts.instr_count -= 1

    return undo, facts.name


def _tamper_wpa_outcome(memo):
    stats = memo.value[1]["inline_stats"]
    stats["rejected_size"] += 1

    def undo():
        stats["rejected_size"] -= 1

    return undo, "value"


def _tamper_applied_facts(memo):
    facts = next(iter(memo.value.facts.values()))
    facts.instr_count += 1

    def undo():
        facts.instr_count -= 1

    return undo, "facts"


def _tamper_an_instruction(memo):
    """Edit one ``LDS`` immediate of a resident routine in place."""
    machine, instr = next(
        (machine, instr) for machine in memo.value
        for instr in machine.instrs if instr.op is MOp.LDS
    )
    instr.imm += 1

    def undo():
        instr.imm -= 1

    return undo, machine.name


def _tamper_a_relocated_call(memo):
    kept = memo.value
    site = next(index for index, instr in enumerate(kept)
                if instr.op is MOp.CALL)
    original = kept[site]
    kept[site] = original.copy()
    kept[site].imm += 1

    def undo():
        kept[site] = original

    return undo, "instr %d" % site


def _tamper_a_body_hash(memo):
    hashes = memo.value.body_hashes
    name = sorted(hashes)[0]
    original = hashes[name]
    hashes[name] = "0" * len(original)

    def undo():
        hashes[name] = original

    return undo, "fingerprint"


def _tamper_a_call_site(memo):
    """Change one call site's argument count: the link would report an
    interface problem the IL does not have."""
    original = memo.value
    arities, sites = original
    caller, callee, nargs = sites[0]
    memo.keep(memo.key, (arities, ((caller, callee, nargs + 1),) + sites[1:]))

    def undo():
        memo.keep(memo.key, original)

    return undo, "value"


def _tamper_a_text(memo):
    original = memo.value
    memo.keep(memo.key, original + " ")

    def undo():
        memo.keep(memo.key, original)

    return undo, "value"


_MEMOS = [
    ("summ-facts", _summ_facts, _reformat_the_summ_blob, _tamper_facts),
    ("stored-wpa-outcome", _stored_wpa, _reformat_the_wpa_header,
     _tamper_wpa_outcome),
    ("applied-wpa", _applied_wpa, _reformat_the_wpa_header,
     _tamper_applied_facts),
    ("machine-routines", _machine_routines, _discard_the_mach_blob,
     _tamper_an_instruction),
    ("relocated-code", _relocated_code, _lengthen_the_first_module,
     _tamper_a_relocated_call),
    ("object-summary", _object_summary, _edit_the_target,
     _tamper_a_body_hash),
    ("object-interface", _object_interface, _edit_the_target,
     _tamper_a_call_site),
    ("summary-text", _summary_text, _edit_the_target, _tamper_a_text),
    # The index text is its own key: nothing derives it again.
    ("index-text", _index_text, _edit_the_target, None),
]


def _rows():
    for label, find, change, tamper in _MEMOS:
        yield pytest.param(find, "hit", None, id=label + "-hit")
        yield pytest.param(find, "input", change, id=label + "-input")
        if tamper is not None:
            yield pytest.param(find, "tampered", tamper,
                               id=label + "-tampered")


@pytest.mark.parametrize("find, case, action", list(_rows()))
def test_a_memo_serves_only_its_input(find, case, action):
    sources = _sources()
    options = OPTIONS
    if case == "tampered":
        options = CompilerOptions(opt_level=4, hlo=HloOptions(checked=True))
    engine = _warm_engine(sources, options)
    memo = find(engine, sources)
    kept = memo.value
    assert kept is not None
    if case == "hit":
        result = engine.build(sources)[0]
        assert find(engine, sources).value is kept
    elif case == "input":
        sources = action(engine, sources)
        result = engine.build(sources)[0]
        assert find(engine, sources).value is not kept
    else:
        undo, field = action(memo)
        with pytest.raises(BuildError) as caught:
            engine.build(sources)
        failure = caught.value.failures["link"]
        assert isinstance(failure, MemoMismatchError)
        assert failure.memo == memo.name
        assert field in failure.fields
        undo()
        result = engine.build(sources)[0]
    assert _image(result) == _image(Compiler(options).build(sources))


# -- The applied WPA state -------------------------------------------------


def _image(result):
    return encode_executable(result.executable)


def _change_options(engine, sources, _state_dir):
    options = CompilerOptions(
        opt_level=4, hlo=HloOptions(inline_callee_max_instrs=40)
    )
    other = BuildEngine(options, incremental=True)
    other.incr_state = engine.incr_state
    return (other.build(sources)[0],
            Compiler(options).build(sources), "decided (options)")


def _link_with_a_profile(engine, sources, _state_dir):
    options = CompilerOptions(opt_level=4, pbo=True)
    profile = train(sources, [None])
    profiled = BuildEngine(options, incremental=True)
    profiled.incr_state = engine.incr_state
    return (profiled.build(sources, profile_db=profile)[0],
            Compiler(options).build(sources, profile_db=profile),
            "decided (profile)")


def _damage_the_outcome(engine, sources, _state_dir):
    repository = engine.incr_state.repository
    blob = bytearray(repository.fetch("wpa", "outcome"))
    blob[len(blob) // 2] ^= 0x80
    repository.store("wpa", "outcome", bytes(blob))
    return engine.build(sources)[0], _cold(sources), "decided (corrupt)"


def _delete_the_outcome(engine, sources, _state_dir):
    engine.incr_state.repository.discard("wpa", "outcome")
    return engine.build(sources)[0], _cold(sources), "decided (missing)"


def _flip_a_byte_of_a_summ_entry(engine, sources, _state_dir):
    target = sorted(name for name in sources if name != "main")[1]
    _flip_a_byte_on_disk(engine.incr_state.repository, "summ", target)
    result = engine.build(sources)[0]
    assert {"event": "summary-fallback", "module": target,
            "reason": "corrupt"} in result.hlo_result.events
    return result, _cold(sources), "reused"


def _change_the_facts(engine, sources, _state_dir):
    edited = dict(sources)
    module = sorted(name for name in sources if name != "main")[2]
    edited[module] = add_statement(sources[module])
    return (engine.build(edited)[0], _cold(edited),
            "decided (facts-changed: %s)" % module)


def _delete_a_routine(engine, sources, _state_dir):
    edited = dict(sources)
    module = next(
        name for name in sorted(sources)
        if delete_uncalled_routine(sources, name) != sources[name]
    )
    edited[module] = delete_uncalled_routine(sources, module)
    return (engine.build(edited)[0], _cold(edited),
            "decided (facts-changed: %s)" % module)


@pytest.mark.parametrize("change", [
    pytest.param(_change_options, id="options"),
    pytest.param(_link_with_a_profile, id="profile"),
    pytest.param(_damage_the_outcome, id="outcome-damaged"),
    pytest.param(_delete_the_outcome, id="outcome-missing"),
    pytest.param(_flip_a_byte_of_a_summ_entry, id="summ-bit-flip"),
    pytest.param(_change_the_facts, id="fact-changing-edit"),
    pytest.param(_delete_a_routine, id="routine-deleted"),
])
def test_the_applied_wpa_state_is_dropped_when_its_inputs_move(
        tmp_path, monkeypatch, change):
    """A link that does not apply the very outcome the kept state was
    derived from, to facts that all came from their ``summ`` blobs or
    an edited module's scan, does not use it: it decides, or applies
    the outcome again, and links the cold image."""
    sources = _sources()
    state_dir = str(tmp_path / "state")
    engine = _warm_engine(sources, state_dir=state_dir)
    state = engine.incr_state
    kept, blob = state.applied_wpa.value, state.applied_wpa.key
    assert kept is not None
    # The facts each WPA read, beside the result it returned: the cold
    # builds and a checked link's reference decide too, so a link's own
    # facts are the ones recorded with its ``hlo_result``.
    read = []
    decide = HighLevelOptimizer._decide

    def recorded(self, selected_routines):
        hlo_result, facts_by_name = decide(self, selected_routines)
        read.append((hlo_result, facts_by_name))
        return hlo_result, facts_by_name

    def facts_of(result):
        (facts_by_name,) = [facts for hlo_result, facts in read
                            if hlo_result is result.hlo_result]
        return facts_by_name

    monkeypatch.setattr(HighLevelOptimizer, "_decide", recorded)
    # Kept: a link that applies the same outcome takes it as it is.
    result = engine.build(sources)[0]
    assert state.applied_wpa.value is kept
    assert facts_of(result) is kept.facts

    result, cold, wpa = change(engine, sources, state_dir)
    assert result.incr_report.describe_wpa() == wpa
    # Still kept only under the bytes it was derived from.
    assert state.applied_wpa.value is not kept or (
        state.applied_wpa.key == blob
    )
    assert facts_of(result) is not kept.facts
    assert _image(result) == _image(cold)
    state.close()


# -- Frame CRCs ------------------------------------------------------------


def _demo_sources():
    """A small program whose ``mach`` entries, and ``util``'s ``summ``
    entry, stay below the repository's compression threshold."""
    sources = {
        os.path.basename(path)[:-len(".mll")]: open(path).read()
        for path in glob.glob(os.path.join(
            os.path.dirname(__file__), "..", "fixtures", "incr_demo",
            "*.mll",
        ))
    }
    sources["util"] = "func twice(x) {\n    return x * 2;\n}\n"
    sources["main"] = sources["main"].replace(
        "return total", "return twice(total)"
    )
    return sources


def _flip_a_character_on_disk(repository, kind, name, characters):
    """Turn the first of ``characters`` in an uncompressed entry into
    its neighbour (a digit of a JSON number, a letter of a routine
    name): the entry still decodes, and says something else."""
    repository.flush()
    segment, entry = repository._located[(kind, name)]
    assert not entry.flags & FLAG_COMPRESSED
    payload = bytes(repository.fetch(kind, name))
    offset = next(index for index, byte in enumerate(payload)
                  if chr(byte) in characters)
    with open(segment.path, "r+b") as handle:
        handle.seek(entry.payload_offset + offset)
        handle.write(bytes([payload[offset] ^ 0x01]))


def test_a_flipped_byte_in_an_uncompressed_summ_entry_is_corrupt(tmp_path):
    sources = _demo_sources()
    engine = _warm_engine(sources, state_dir=str(tmp_path / "state"))
    repository = engine.incr_state.repository
    _flip_a_character_on_disk(repository, "summ", "util", "23456789")
    with pytest.raises(RepositoryError, match="CRC"):
        repository.fetch("summ", "util")

    result, _report = engine.build(sources)
    assert [event for event in result.hlo_result.events
            if event.get("event") == "summary-fallback"] == [
        {"event": "summary-fallback", "module": "util",
         "reason": "corrupt"}]
    assert _image(result) == _image(_cold(sources))
    assert bytes(repository.fetch("summ", "util"))
    engine.incr_state.close()


def test_a_flipped_byte_in_an_uncompressed_mach_entry_is_corrupt(tmp_path):
    """The warm process keeps its machine routines decoded; the next
    process on the state dir reads the entry, and its CRC says it is
    damaged, so the module is compiled again."""
    sources = _demo_sources()
    state_dir = str(tmp_path / "state")
    engine = _warm_engine(sources, state_dir=state_dir)
    state = engine.incr_state
    module = "math"
    key = state.module_keys[module]
    _flip_a_character_on_disk(state.repository, "mach", key,
                              "abcdefghijklmnopqrstuvwxyz")
    state.close()

    reopened = BuildEngine(OPTIONS, incremental=True, state_dir=state_dir)
    with pytest.raises(RepositoryError, match="CRC"):
        reopened.incr_state.repository.fetch("mach", key)
    result, report = reopened.build(sources)
    assert {"event": "machine-blob-fallback", "module": module,
            "key": key, "reason": "corrupt"} in result.hlo_result.events
    assert module in report.cmo_reoptimized
    assert _image(result) == _image(_cold(sources))
    reopened.incr_state.close()
