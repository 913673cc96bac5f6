"""Resident state must not hide damage.

Between links a warm :class:`BuildEngine` keeps the facts it parsed
from each ``summ`` blob, what applying the stored WPA outcome gave,
each machine routine's relocated copies and each object's interface
table.  Each row damages or changes what one of them was made from, on
one warm engine, and expects the link to notice: a structured event or
error, and the image (or the error) a cold build of the same sources
gives.  The pack repository under a state dir checks every entry's
frame CRC on fetch, so a flipped byte that would still decode is
noticed too.
"""

from __future__ import annotations

import glob
import os
import re

import pytest

import repro.linker.link as link
from repro.driver import train
from repro.driver.build import BuildEngine, BuildError
from repro.driver.compiler import Compiler
from repro.driver.options import CompilerOptions
from repro.hlo.driver import AppliedWpaMismatchError
from repro.hlo.options import HloOptions
from repro.incr.state import ResidentFactsMismatchError
from repro.linker.objects import LinkError, encode_executable
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


def _warm_engine(sources, **kwargs):
    """An engine that has linked ``sources`` twice: every ``summ`` blob
    is parsed and resident, every routine has its relocated copies."""
    engine = BuildEngine(OPTIONS, incremental=True, **kwargs)
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
    real_verify = link._verify_memo

    def verify_memo(*args):
        # A checked link relocates every reused routine again, to compare.
        before = len(copied)
        real_verify(*args)
        del copied[before:]

    monkeypatch.setattr(link, "_verify_memo", verify_memo)
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
    resident = dict(engine.incr_state.parsed_facts)
    applied = engine.incr_state.applied_wpa[1]

    def views():
        kept = [facts.view for _fp, _blob, parsed in resident.values()
                for facts in parsed]
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
    assert engine.incr_state.applied_wpa[1] is applied
    assert set(merged) & {name for _id, name in before}, (
        "no resident view was merged into"
    )
    assert views() == before
    assert encode_executable(result.executable) == (
        encode_executable(_cold(sources).executable)
    )


def test_a_checked_link_catches_a_tampered_memo():
    """With ``HloOptions.checked`` every link parses and relocates again
    beside what it kept and raises on any difference."""
    sources = _sources()
    options = CompilerOptions(opt_level=4, hlo=HloOptions(checked=True))
    engine = BuildEngine(options, incremental=True)
    engine.build(sources)
    engine.build(sources)
    state = engine.incr_state

    target = sorted(name for name in sources if name != "main")[0]
    facts = state.parsed_facts[target][2][0]
    facts.instr_count += 1
    with pytest.raises(BuildError) as caught:
        engine.build(sources)
    assert isinstance(caught.value.failures["link"],
                      ResidentFactsMismatchError)
    facts.instr_count -= 1

    routine = next(
        machine for machines in state._machines.values()
        for machine in machines
        if machine.linked is not None and machine.reloc_symbols()[0]
    )
    kept = routine.linked[1]
    site = next(index for index in routine.reloc_sites()
                if kept[index].op is MOp.CALL)
    kept[site] = kept[site].copy()
    kept[site].imm += 1
    with pytest.raises(BuildError) as caught:
        engine.build(sources)
    failure = caught.value.failures["link"]
    assert isinstance(failure, LinkError)
    assert routine.name in str(failure)


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
        tmp_path, change):
    """A link that does not apply the very outcome the kept state was
    derived from, to facts that all came from their ``summ`` blobs or
    an edited module's scan, does not use it: it decides, or applies
    the outcome again, and links the cold image."""
    sources = _sources()
    state_dir = str(tmp_path / "state")
    engine = _warm_engine(sources, state_dir=state_dir)
    state = engine.incr_state
    assert state.applied_wpa is not None
    kept = state.applied_wpa[1]
    # Kept: a link that applies the same outcome takes it as it is.
    result = engine.build(sources)[0]
    assert state.applied_wpa[1] is kept
    assert result.hlo_result.thin_facts is kept.facts

    result, cold, wpa = change(engine, sources, state_dir)
    assert result.incr_report.describe_wpa() == wpa
    assert state.applied_wpa is None or state.applied_wpa[1] is not kept
    assert result.hlo_result.thin_facts is not kept.facts
    assert _image(result) == _image(cold)
    state.close()


def test_a_checked_link_catches_a_tampered_applied_wpa_state():
    sources = _sources()
    options = CompilerOptions(opt_level=4, hlo=HloOptions(checked=True))
    engine = BuildEngine(options, incremental=True)
    engine.build(sources)
    engine.build(sources)
    kept = engine.incr_state.applied_wpa[1]
    facts = next(iter(kept.facts.values()))
    facts.instr_count += 1
    with pytest.raises(BuildError) as caught:
        engine.build(sources)
    failure = caught.value.failures["link"]
    assert isinstance(failure, AppliedWpaMismatchError)
    assert "facts" in str(failure)
    facts.instr_count -= 1
    result, _report = engine.build(sources)
    assert _image(result) == _image(Compiler(options).build(sources))


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
