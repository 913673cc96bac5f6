"""Resident state must not hide damage.

Between links a warm :class:`BuildEngine` keeps the facts it parsed
from each ``summ`` blob, each machine routine's relocated copies and
each object's interface table.  Each row damages or changes what one
of them was made from, on one warm engine, and expects the link to
notice: a structured event or error, and the image (or the error) a
cold build of the same sources gives.
"""

from __future__ import annotations

import re

import pytest

import repro.linker.link as link
from repro.driver.build import BuildEngine, BuildError
from repro.driver.compiler import Compiler
from repro.driver.options import CompilerOptions
from repro.hlo.options import HloOptions
from repro.incr.state import ResidentFactsMismatchError
from repro.linker.objects import LinkError, encode_executable
from repro.synth import WorkloadConfig, generate
from repro.vm.isa import RELOCATED_OPS, MInstr, MOp
from synth_edits import add_statement, bump

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
    facts from the resident parse; its scalar passes merge blocks in
    the profile views.  They must do it in the link's copies."""
    from repro.hlo.profile_view import ProfileView

    sources = dict(generate(WorkloadConfig(
        "guard", n_modules=8, routines_per_module=4, n_features=3,
        dispatch_count=40, input_size=16, seed=11,
    )).sources)
    engine = _warm_engine(sources)
    resident = dict(engine.incr_state.parsed_facts)

    def views():
        return {
            facts.name: (dict(facts.view.block_counts),
                         dict(facts.view.edge_counts))
            for _fp, _blob, parsed in resident.values() for facts in parsed
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
    assert set(merged) & set(before), "no resident view was merged into"
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
