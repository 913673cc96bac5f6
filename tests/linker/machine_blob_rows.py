"""The two fixed-seed ``mach`` blobs ``tests/fixtures/golden_mach_blob.json``
freezes, as functions of the tree they are imported into.

``synthetic`` is a seeded random routine list that touches every field
of the format (no compiler involved, so only a format change moves it);
``build`` is what a warm engine stores for a fixed synthetic program
(codegen and format together).  The fixture was written by running
these rows on the commit before the batched codec.
"""

import hashlib
import random

from repro.driver.build import BuildEngine
from repro.driver.options import CompilerOptions
from repro.linker.objects import encode_machine_routines
from repro.naim.compaction import OPCODE_WIRE_LIST
from repro.synth import WorkloadConfig, generate
from repro.vm.image import MachineRoutine
from repro.vm.isa import MInstr, MOp


def synthetic_routines(seed=1998, n_routines=12):
    rng = random.Random(seed)
    ops = list(MOp)

    def maybe(draw):
        return draw() if rng.random() < 0.6 else None

    routines = []
    for index in range(n_routines):
        instrs = [
            MInstr(
                ops[(index + position) % len(ops)],
                subop=maybe(lambda: rng.choice(OPCODE_WIRE_LIST)),
                rd=maybe(lambda: rng.randrange(16)),
                rs1=maybe(lambda: rng.randrange(16)),
                rs2=maybe(lambda: rng.randrange(300)),
                imm=maybe(lambda: rng.choice(
                    (0, -1, 127, 128, -(2 ** 63), 2 ** 63 - 1,
                     rng.randrange(-10 ** 12, 10 ** 12))
                )),
                imm2=maybe(lambda: rng.randrange(1 << 20)),
                sym=maybe(lambda: "sym%d" % rng.randrange(40)),
            )
            for position in range(rng.randrange(0, 60))
        ]
        routines.append(MachineRoutine(
            "routine%d" % index, instrs, n_params=rng.randrange(6),
            frame_size=rng.randrange(200), source_module="m%d" % (index % 3),
        ))
    routines.append(MachineRoutine("empty", [], n_params=0, frame_size=0))
    return routines


def _row(blobs):
    digest = hashlib.sha256()
    for blob in blobs:
        digest.update(blob)
    return {"sha256": digest.hexdigest(),
            "bytes": sum(len(blob) for blob in blobs)}


def synthetic_row():
    return _row([encode_machine_routines(synthetic_routines())])


def build_row():
    app = generate(WorkloadConfig(
        "machblob", n_modules=5, routines_per_module=4, n_features=3,
        dispatch_count=40, input_size=16, seed=1998,
    ))
    engine = BuildEngine(CompilerOptions(opt_level=4), incremental=True)
    engine.build(dict(app.sources))
    state = engine.incr_state
    return _row([
        bytes(state.repository.fetch("mach", state.module_keys[name]))
        for name in sorted(state.module_keys)
    ])


ROWS = {"synthetic": synthetic_row, "build": build_row}
