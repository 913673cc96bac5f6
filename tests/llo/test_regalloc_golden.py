"""Register assignments for the golden programs are frozen.

``tests/fixtures/golden_regalloc.json`` holds, per program, a digest of
every routine's LIR after :func:`repro.llo.regalloc.allocate` in each
allocation mode.  It was produced by the allocator that still ran its
own set-based liveness dataflow; the bitmask kernel it shares with HLO
now must assign the very same registers and slots.  To regenerate after
an *intended* allocation change::

    PYTHONPATH=src python tests/llo/test_regalloc_golden.py \\
        > tests/fixtures/golden_regalloc.json
"""

import hashlib
import json
import os

import pytest

from repro.frontend import compile_sources
from repro.hlo.profile_view import ProfileView
from repro.llo.lower import lower_routine
from repro.llo.regalloc import AllocMode, allocate
from repro.llo.schedule import schedule_routine
from repro.synth import WorkloadConfig, generate

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
GOLDEN_PATH = os.path.join(FIXTURES, "golden_regalloc.json")

#: The programs of ``tests/integration/test_determinism.py``'s golden
#: rows (option-only variants of one program appear once).
PROGRAMS = {
    "incr_demo": None,
    "s3_m4": dict(n_modules=4, routines_per_module=3, seed=3),
    "s11_m6": dict(n_modules=6, routines_per_module=4, seed=11),
    "s29_m8": dict(n_modules=8, routines_per_module=3, seed=29),
    "s101_m5_wide": dict(n_modules=5, routines_per_module=6, seed=101,
                         cross_module_fraction=0.8),
    "s7_m6_mfl": dict(n_modules=6, routines_per_module=3, seed=7,
                      mfl_fraction=0.5),
    "s1234_m10": dict(n_modules=10, routines_per_module=3, seed=1234),
    "s17_m8": dict(n_modules=8, routines_per_module=4, seed=17),
    "s42_m7": dict(n_modules=7, routines_per_module=4, seed=42),
}


def program_sources(name):
    kwargs = PROGRAMS[name]
    if kwargs is None:
        directory = os.path.join(FIXTURES, "incr_demo")
        sources = {}
        for entry in sorted(os.listdir(directory)):
            with open(os.path.join(directory, entry)) as handle:
                sources[os.path.splitext(entry)[0]] = handle.read()
        return sources
    return generate(WorkloadConfig(
        "golden_" + name, n_features=3, dispatch_count=60, input_size=16,
        **kwargs
    )).sources


def allocation_digest(name):
    digest = hashlib.sha256()
    program = compile_sources(program_sources(name))
    for routine in program.all_routines():
        shapes = [(mode, None) for mode in AllocMode]
        # A view switches spill-victim choice to use-count weights.
        shapes.append((AllocMode.GLOBAL, ProfileView.static_estimate(routine)))
        for mode, view in shapes:
            lir = lower_routine(routine)
            schedule_routine(lir)
            result = allocate(lir, mode, view)
            lines = ["%s %s %s frame=%d spilled=%d assigned=%d" % (
                routine.name, mode.value, "weighted" if view is not None else "plain",
                result.frame_size, result.spilled_count,
                result.assigned_count,
            )]
            for block in lir.blocks:
                lines.append("%s: %r" % (block.label, block.terminator))
                lines.extend(repr(instr) for instr in block.instrs)
            digest.update("\n".join(lines).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_assignments_unchanged(name):
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    assert allocation_digest(name) == golden[name]


if __name__ == "__main__":
    print(json.dumps(
        {name: allocation_digest(name) for name in sorted(PROGRAMS)},
        indent=1, sort_keys=True,
    ))
