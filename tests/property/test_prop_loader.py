"""Property tests for what the NAIM loader leaves in its repository.

Whatever the loader's policy -- pinned to ``OFFLOAD`` with a cache of
1, 4 or 64 pools, thresholded so the level rises mid-build, or off --
the image is the NAIM-off image, and after every phase each body the
loader is holding *in whatever form* (expanded, compact bytes, the
repository's bytes) is the body a whole-unit run that never compacted
anything holds.  That extends the scoped-versus-whole replay check of
``test_prop_incremental`` to the loader, and it is what a clean
eviction could break: dropping a body that had been edited would leave
the pre-edit bytes in the repository for the next phase to read.

Every build here is checked, so each clean eviction is also re-encoded
against the repository where it happens.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.driver.compiler import Compiler
from repro.driver.options import CompilerOptions
from repro.frontend import compile_sources
from repro.hlo import driver as hlo_driver
from repro.hlo.driver import HighLevelOptimizer
from repro.hlo.options import HloOptions
from repro.ir.symbols import ProgramSymbolTable
from repro.linker.objects import encode_executable
from repro.naim.compaction import compact_routine, uncompact_routine
from repro.naim.config import NaimConfig, NaimLevel
from repro.naim.pools import KIND_IR, PoolState
from repro.synth import WorkloadConfig, generate


def small_app(seed):
    config = WorkloadConfig(
        "naim%d" % seed,
        n_modules=6,
        routines_per_module=3,
        n_features=2,
        dispatch_count=40,
        input_size=16,
        seed=seed,
    )
    return generate(config)


def naim_configs(unloaded_peak):
    """Loader policies by name; ``unloaded_peak`` is what the program
    needs with NAIM off, so a machine of that size crosses every
    threshold on the way up."""
    configs = {
        "offload, cache %d" % pools: NaimConfig.pinned(
            NaimLevel.OFFLOAD, cache_pools=pools
        )
        for pools in (1, 4, 64)
    }
    configs["thresholded"] = NaimConfig(
        physical_memory_bytes=unloaded_peak, cache_pools=2
    )
    return configs


def canonical(routine):
    """Compact bytes against a fresh symbol table: comparable between
    runs whose program tables interned names in different orders."""
    return compact_routine(routine, ProgramSymbolTable())


def held_bodies(loader):
    """Routine name -> canonical bytes of the body the loader holds."""
    symtab = loader.symtab
    bodies = {}
    for pool in loader.pools():
        if pool.kind != KIND_IR:
            continue
        if pool.state is PoolState.EXPANDED:
            body = pool.expanded
            if pool.unchanged_since_fetch():
                # The rule's premise: a body the loader would drop
                # without encoding is the body the repository holds.
                stored = uncompact_routine(
                    loader.repository.fetch(KIND_IR, pool.name), symtab
                )
                assert canonical(stored) == canonical(body), pool.name
        elif pool.state is PoolState.COMPACT:
            body = uncompact_routine(pool.compact_bytes, symtab)
        else:
            body = uncompact_routine(
                loader.repository.fetch(KIND_IR, pool.name), symtab
            )
        bodies[pool.name] = canonical(body)
    return bodies


def bodies_after_each_phase(sources, naim_config):
    """Three snapshots of :func:`held_bodies`: after the whole-program
    phases, after plan replay, after the scalar pipeline."""
    hlo = HighLevelOptimizer(
        compile_sources(sources),
        options=HloOptions(checked=True),
        naim_config=naim_config,
    )
    result = hlo.optimize(run_scalar=False)
    loader = result.loader
    snapshots = [held_bodies(loader)]
    real_replay = hlo_driver.replay_plan

    def replay_then_snapshot(*args):
        real_replay(*args)
        snapshots.append(held_bodies(loader))

    hlo_driver.replay_plan = replay_then_snapshot
    try:
        hlo.run_scalar_phase(result)
    finally:
        hlo_driver.replay_plan = real_replay
    snapshots.append(held_bodies(loader))
    return snapshots, loader


def image(sources, naim_config):
    build = Compiler(CompilerOptions(
        opt_level=4, naim=naim_config, hlo=HloOptions(checked=True),
    )).build(sources)
    return encode_executable(build.executable), build


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(deadline=None, max_examples=5,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_loader_policy_builds_the_naim_off_image(seed):
    sources = small_app(seed).sources
    reference, unloaded = image(sources, NaimConfig.pinned(NaimLevel.OFF))
    for name, config in naim_configs(unloaded.accountant.peak).items():
        built, build = image(sources, config)
        assert built == reference, name
        assert build.hlo_result.loader.stats.compactions > 0, name


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(deadline=None, max_examples=5,
          suppress_health_check=[HealthCheck.too_slow])
def test_the_repository_holds_what_a_run_that_never_compacted_holds(seed):
    sources = small_app(seed).sources
    whole, unloaded = bodies_after_each_phase(
        sources, NaimConfig.pinned(NaimLevel.OFF)
    )
    assert unloaded.stats.compactions == 0
    clean = 0
    for name, config in naim_configs(unloaded.accountant.peak).items():
        held, loader = bodies_after_each_phase(sources, config)
        for phase, ours, theirs in zip(("wpa", "replay", "scalar"),
                                       held, whole):
            assert sorted(ours) == sorted(theirs), (name, phase)
            for routine, body in ours.items():
                assert body == theirs[routine], (name, phase, routine)
        clean += loader.stats.clean_evictions
    # The rule under test did fire (replay reads callee bodies).
    assert clean > 0
