"""The benchmark's five workloads: what is built, with which options, and why.

A workload is one program from :mod:`repro.synth`, one set of compiler
options and one timed operation.  Everything here is shared by the
measured child process (:mod:`measure`) and by the checking parent
(:mod:`run`), which must derive the very same sources and edits.

The generated program, its training input and its reference input are
fixed per workload; ``--seed`` drives the edit sequence of
``edit_loop`` and the input the semantic oracle is checked on.  Drawing
the program itself from the seed was measured and dropped: across ten
synth seeds ``build_s`` spread 10 % and ``vm_cycles`` 89 % (IQR/median),
wider than any regression bound worth having (README, "Seeds").
"""

from __future__ import annotations

import random
import re
from typing import Dict, List, NamedTuple, Optional

from repro.driver import CompilerOptions
from repro.naim.config import NaimConfig, NaimLevel
from repro.sched.procpool import cpu_count
from repro.synth import GeneratedApp, full_suite, generate, tiny_config

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1
#: Input the profile of ``selective_pbo`` is trained on (paper: train set).
TRAIN_INPUT_SEED = 1
#: Input ``vm_cycles`` is measured on (paper: reference set).
REF_INPUT_SEED = 2
#: Edits replayed during set-up of ``edit_loop``.  They are the same for
#: every ``--seed``, so the image the deterministic metrics are read from
#: is too; the seeded, timed edits start after them.
WARMUP_EDITS = 2
WARMUP_EDIT_SEED = 0


class Workload(NamedTuple):
    name: str
    why: str
    #: Named config of :func:`repro.synth.full_suite` and its module scale.
    config: str
    scale: float
    pbo: bool = False
    naim_offload: bool = False
    parallel: bool = False
    incremental: bool = False
    #: Operations that always run, whatever ``--seconds`` says.  The
    #: per-layer counts are summed over exactly these, so they repeat.
    min_ops: int = 3
    #: Operations of a ``--quick`` run (smoke test only).
    quick_ops: int = 2


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "cold_full_cmo",
            "cold +O4 build, no profile so every module is CMO, serial: "
            "hlo (WPA + scalar) and llo do most of the work, naim none",
            config="mcad1_like", scale=0.6,
        ),
        Workload(
            "cold_naim_offload",
            "the paper's Fig. 4/5 regime: NAIM pinned to OFFLOAD with a "
            "4-pool cache and an on-disk pack repository, mixed MLL/MFL",
            config="mcad2_like", scale=0.6, naim_offload=True,
        ),
        Workload(
            "selective_pbo",
            "the paper's Fig. 6 point: +O4 +P at 20% selectivity, so "
            "frontend, profile correlation and +O2 llo dominate, hlo is small",
            config="mcad2_like", scale=1.0, pbo=True,
        ),
        Workload(
            "parallel_ltrans",
            "cold_full_cmo's sources and options, LTRANS partitioned onto "
            "worker processes: same work through part/sched, same image",
            config="mcad1_like", scale=0.6, parallel=True,
        ),
        Workload(
            "edit_loop",
            "edit-compile cycle: incremental engine on a state dir, each "
            "operation bumps one constant in one module and rebuilds",
            config="mcad1_like", scale=0.6, incremental=True,
            min_ops=8, quick_ops=5,
        ),
    )
}


def make_app(workload: Workload, quick: bool = False) -> GeneratedApp:
    """The workload's program (``quick``: the unit-test-sized one)."""
    if quick:
        return generate(tiny_config())
    return generate(full_suite()[workload.config].scaled(workload.scale))


def make_options(workload: Workload,
                 repository_dir: Optional[str] = None) -> CompilerOptions:
    """The ``+O4`` options of one build of ``workload``."""
    kwargs = {}
    if workload.pbo:
        kwargs.update(pbo=True, selectivity_percent=20.0)
    if workload.naim_offload:
        kwargs.update(
            naim=NaimConfig.pinned(NaimLevel.OFFLOAD, cache_pools=4),
            repository_dir=repository_dir,
        )
    if workload.parallel:
        jobs = min(cpu_count(), 4)  # never more workers than CPUs
        # The partition count is given so that a 1-CPU host still runs
        # the partitioned path (with one worker) instead of the serial one.
        kwargs.update(hlo_jobs=jobs, hlo_partitions=4 * jobs,
                      hlo_backend="processes")
    return CompilerOptions(opt_level=4, **kwargs)


def serial_reference(workload: Workload) -> Workload:
    """The serial, non-incremental workload whose image must equal ours."""
    return workload._replace(parallel=False, incremental=False)


_CONSTANT = re.compile(r"\* (\d+) \+")


def apply_edit(sources: Dict[str, str], rng: random.Random) -> str:
    """Bump one multiplier constant in one non-``main`` module, in place.

    Returns the edited module's name.  Every routine the generator emits
    starts with ``acc = p0 * K + p1``, so every module has a site.
    """
    name = rng.choice(sorted(n for n in sources if n != "main"))
    text = sources[name]
    site = rng.choice(list(_CONSTANT.finditer(text)))
    sources[name] = "%s%d%s" % (
        text[:site.start(1)], int(site.group(1)) + 1, text[site.end(1):]
    )
    return name


def edited_sources(app: GeneratedApp, seed: int, n_edits: int) -> Dict[str, str]:
    """``edit_loop``'s sources after set-up and ``n_edits`` seeded edits."""
    sources = dict(app.sources)
    for rng, count in ((edit_rng(None), WARMUP_EDITS),
                       (edit_rng(seed), n_edits)):
        for _ in range(count):
            apply_edit(sources, rng)
    return sources


def edit_rng(seed: Optional[int]) -> random.Random:
    """The edit stream of ``seed`` (``None``: the fixed set-up edits)."""
    return random.Random(WARMUP_EDIT_SEED if seed is None else 7919 + seed)


def check_input(app: GeneratedApp, seed: int) -> Dict[str, List[int]]:
    """The program input the semantic oracle is evaluated on."""
    return app.make_input(seed=1000 + seed)
