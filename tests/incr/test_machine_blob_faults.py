"""Fault rows for the cached machine code (``mach`` blobs) and the
decoded routines a warm :class:`IncrementalState` keeps beside them.

Every row ends in a byte-identical image; a blob that a committed key
points at but that is gone or does not decode is reported as a
``machine-blob-fallback`` event, never silently recompiled.  The warm
process answers from the routines it already decoded, so it only
notices a blob the repository no longer contains -- the repository is
the authority on *which* keys exist, the resident list on what a key
that exists decodes to.
"""

from __future__ import annotations

import shutil

import pytest

from repro.driver.build import BuildEngine
from repro.driver.compiler import Compiler
from repro.driver.options import CompilerOptions
from repro.linker.objects import encode_executable
from repro.synth import WorkloadConfig, generate
from synth_edits import bump

OPTIONS = CompilerOptions(opt_level=4)


def _app():
    return generate(WorkloadConfig(
        "faults", n_modules=6, routines_per_module=4, n_features=3,
        dispatch_count=40, input_size=16, seed=23,
    ))


def _image(result):
    return encode_executable(result.executable)


def _clean_image(sources):
    return _image(Compiler(OPTIONS).build(sources))


def _fallbacks(result):
    return [event for event in result.hlo_result.events
            if event.get("event") == "machine-blob-fallback"]


def _truncate(repository, key):
    blob = bytes(repository.fetch("mach", key))
    repository.store("mach", key, blob[:len(blob) // 2])


def _flip_version_bit(repository, key):
    blob = bytearray(repository.fetch("mach", key))
    blob[0] ^= 0x40
    repository.store("mach", key, bytes(blob))


def _delete(repository, key):
    repository.discard("mach", key)


#: (fault, reason a process that has to read the blob reports,
#:  whether a warm process notices at all).
FAULT_ROWS = [
    pytest.param(_truncate, "corrupt", False, id="truncate"),
    pytest.param(_flip_version_bit, "corrupt", False, id="bit-flip"),
    pytest.param(_delete, "missing", True, id="delete"),
]


@pytest.mark.parametrize("fault, reason, warm_notices", FAULT_ROWS)
def test_damaged_blob_between_two_builds(tmp_path, fault, reason,
                                         warm_notices):
    sources = dict(_app().sources)
    victim = sorted(name for name in sources if name != "main")[0]
    state_dir = str(tmp_path / "state")
    warm = BuildEngine(OPTIONS, incremental=True, state_dir=state_dir)
    warm.build(sources)
    sources[victim] = bump(sources[victim])
    result, _ = warm.build(sources)
    target = next(name for name in result.incr_report.reused
                  if name != victim)
    key = warm.incr_state.module_keys[target]

    fault(warm.incr_state.repository, key)
    warm.incr_state.repository.flush()
    cold_dir = str(tmp_path / "cold")
    shutil.copytree(state_dir, cold_dir)

    sources[victim] = bump(sources[victim])
    clean = _clean_image(sources)
    expected_event = {"event": "machine-blob-fallback", "module": target,
                      "key": key, "reason": reason}

    # A cold process has to read the blob: it says so, recompiles the
    # module and links the same image.
    cold = BuildEngine(OPTIONS, incremental=True, state_dir=cold_dir)
    result, _ = cold.build(sources)
    assert _fallbacks(result) == [expected_event]
    assert target in result.incr_report.reoptimized
    assert _image(result) == clean
    logged = [event.args for event in cold.events.events
              if event.name == "machine-blob-fallback"]
    assert logged == [expected_event]
    # The recompile re-stored the blob: the state healed itself.
    result, _ = cold.build(sources)
    assert not _fallbacks(result)
    assert result.incr_report.reoptimized == []
    assert _image(result) == clean
    cold.incr_state.close()

    # The warm process holds the decoded routines; it only falls back
    # when the repository no longer has the key at all, or when it is
    # checked: a checked link decodes every blob it kept again.
    result, _ = warm.build(sources)
    assert _image(result) == clean
    if warm_notices or OPTIONS.hlo.checked:
        assert _fallbacks(result) == [expected_event]
        assert target in result.incr_report.reoptimized
    else:
        assert not _fallbacks(result)
        assert target in result.incr_report.reused
    warm.incr_state.close()


def test_a_new_key_without_a_blob_is_not_a_fault(tmp_path):
    sources = dict(_app().sources)
    victim = sorted(name for name in sources if name != "main")[0]
    engine = BuildEngine(OPTIONS, incremental=True,
                         state_dir=str(tmp_path / "state"))
    engine.build(sources)
    sources[victim] = bump(sources[victim])
    result, _ = engine.build(sources)
    assert victim in result.incr_report.reoptimized
    assert not _fallbacks(result)
    engine.incr_state.close()


def test_warm_cold_and_clean_agree_after_eight_edits(tmp_path):
    sources = dict(_app().sources)
    names = sorted(name for name in sources if name != "main")
    state_dir = str(tmp_path / "state")
    warm = BuildEngine(OPTIONS, incremental=True, state_dir=state_dir)
    warm.build(sources)
    for edit in range(8):
        name = names[(edit * 5) % len(names)]
        sources[name] = bump(sources[name], nth=edit)
        result, _report = warm.build(sources)
        assert not _fallbacks(result)
    warm_image = _image(result)
    warm.incr_state.close()

    cold = BuildEngine(OPTIONS, incremental=True, state_dir=state_dir)
    result, _ = cold.build(sources)
    assert result.incr_report.reoptimized == []
    assert not _fallbacks(result)
    cold.incr_state.close()
    assert warm_image == _image(result) == _clean_image(sources)


def _snapshot(machines_by_key):
    return {
        key: [
            (m.name, m.n_params, m.frame_size, m.source_module,
             [(i.op, i.subop, i.rd, i.rs1, i.rs2, i.imm, i.imm2, i.sym,
               i.target) for i in m.instrs])
            for m in machines
        ]
        for key, machines in machines_by_key.items()
    }


def _resident(state):
    """reuse key -> the machine routines the state keeps for it."""
    return {key: memo.value for key, memo in state.machines.items()}


def test_linking_never_mutates_the_resident_routines():
    """The resident lists are shared by every later link: relocation
    works on copies, and a decoded blob equals what was encoded."""
    app = _app()
    sources = dict(app.sources)
    victim = sorted(name for name in sources if name != "main")[0]
    engine = BuildEngine(OPTIONS, incremental=True)
    engine.build(sources)
    state = engine.incr_state
    before = _snapshot(_resident(state))
    assert before
    sources[victim] = bump(sources[victim])
    result, _ = engine.build(sources)
    result.run(inputs=app.make_input(seed=1))
    after = _snapshot(_resident(state))
    reused_keys = [state.module_keys[name]
                   for name in result.incr_report.reused]
    assert reused_keys
    for key in reused_keys:
        assert after[key] == before[key]
    # What a cold process would decode is what the warm one holds.
    resident = _resident(state)
    state.machines.clear()
    decoded = {key: state.load_machines(key)[0] for key in resident}
    assert _snapshot(decoded) == _snapshot(resident)
