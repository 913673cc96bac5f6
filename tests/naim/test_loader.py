"""Unit tests for the NAIM loader: states, cache, thresholds, pinning."""

import pytest

from repro.frontend import compile_sources
from repro.naim import (
    KIND_IR,
    Loader,
    NaimConfig,
    NaimLevel,
    PoolState,
    ReleasedPoolError,
    Repository,
    UnsignalledMutationError,
)
from repro.naim.compaction import routines_equal


def make_program(n_routines=12):
    body = (
        "func fN(a) { var t = 0; while (a > 0) "
        "{ t = t + a; a = a - 1; } return t; }"
    )
    sources = {
        "m%d" % i: body.replace("fN", "f%d" % i) for i in range(n_routines)
    }
    sources["mn"] = "func main() { return %s; }" % " + ".join(
        "f%d(2)" % i for i in range(n_routines)
    )
    return compile_sources(sources)


def make_loader(level, cache_pools=3, n_routines=12, checked=False):
    program = make_program(n_routines)
    loader = Loader(
        NaimConfig.pinned(level, cache_pools=cache_pools),
        program.symtab,
        repository=Repository(in_memory=True),
        checked=checked,
    )
    handles = {
        routine.name: loader.register_routine(routine)
        for routine in program.all_routines()
    }
    return program, loader, handles


class TestStates:
    def test_registered_pools_start_expanded(self):
        _, loader, handles = make_loader(NaimLevel.OFF)
        assert all(
            h.peek_state() is PoolState.EXPANDED for h in handles.values()
        )

    def test_level_off_never_compacts(self):
        _, loader, handles = make_loader(NaimLevel.OFF)
        for handle in handles.values():
            handle.request_unload()
        assert loader.stats.compactions == 0

    def test_ir_compact_evicts_beyond_cache(self):
        _, loader, handles = make_loader(NaimLevel.IR_COMPACT, cache_pools=3)
        for handle in handles.values():
            handle.request_unload()
        states = loader.pool_states()
        assert states.get("compact", 0) > 0
        assert states.get("offloaded", 0) == 0

    def test_offload_goes_to_repository(self):
        _, loader, handles = make_loader(NaimLevel.OFFLOAD, cache_pools=2)
        for handle in handles.values():
            handle.request_unload()
        assert loader.stats.offloads > 0
        assert len(loader.repository) > 0
        assert loader.pool_states().get("offloaded", 0) > 0

    def test_touch_restores_offloaded_pool(self):
        program, loader, handles = make_loader(NaimLevel.OFFLOAD, cache_pools=2)
        for handle in handles.values():
            handle.request_unload()
        victim = next(
            h for h in handles.values()
            if h.peek_state() is PoolState.OFFLOADED
        )
        routine = victim.get()
        assert routine.name == victim.name
        assert victim.peek_state() is PoolState.EXPANDED
        assert loader.stats.repository_fetches >= 1


class TestCache:
    def test_lru_eviction_order(self):
        _, loader, handles = make_loader(NaimLevel.IR_COMPACT, cache_pools=2)
        names = sorted(handles)
        # Touch in a known order, then release everything.
        for name in names:
            handles[name].get()
        for name in names:
            handles[name].request_unload()
        # Most recently touched survive in the cache.
        survivors = [
            name
            for name in names
            if handles[name].peek_state() is PoolState.EXPANDED
        ]
        assert survivors == names[-len(survivors):]

    def test_cache_hit_on_prompt_retouch(self):
        _, loader, handles = make_loader(NaimLevel.IR_COMPACT, cache_pools=6)
        name = sorted(handles)[-1]
        handles[name].get()
        handles[name].request_unload()
        before = loader.stats.uncompactions
        handles[name].get()  # still cached: no uncompaction
        assert loader.stats.uncompactions == before
        assert loader.stats.cache_hits >= 1

    def test_mutation_survives_eviction_and_reload(self):
        _, loader, handles = make_loader(NaimLevel.IR_COMPACT, cache_pools=1)
        name = sorted(handles)[0]
        routine = handles[name].get()
        routine.source_lines = 777
        loader.reaccount(handles[name])
        # Force eviction by touching everything else.
        for other in sorted(handles):
            if other != name:
                handles[other].get()
                handles[other].request_unload()
        handles[name].request_unload()
        assert handles[name].peek_state() is not PoolState.EXPANDED
        assert handles[name].get().source_lines == 777


def offloaded_loader(checked=False):
    """A loader whose every routine but the newest sits in the
    repository, and one of those handles."""
    _, loader, handles = make_loader(
        NaimLevel.OFFLOAD, cache_pools=1, checked=checked
    )
    loader.request_unload_all()
    victim = next(
        h for h in sorted(handles.values(), key=lambda h: h.name)
        if h.peek_state() is PoolState.OFFLOADED
    )
    return loader, handles, victim


class TestCleanEvictions:
    """A body crosses the codec only when its bytes may have changed:
    the mutation signal is ``invalidate()`` / ``invalidate_instrs()``."""

    def test_a_body_that_was_only_read_is_dropped_not_encoded(self):
        loader, _, victim = offloaded_loader()
        repository = loader.repository
        encodes, stores = loader.stats.compactions, repository.stores
        skips = repository.store_skips
        assert victim.get().instr_count() > 0  # decoded, read...
        victim.get().predecessors()  # ...and analysed
        loader.evict(victim)
        assert victim.peek_state() is PoolState.OFFLOADED
        assert loader.stats.clean_evictions == 1
        assert loader.stats.compactions == encodes
        assert (repository.stores, repository.store_skips) == (stores, skips)
        assert victim.pool.resident_bytes() == 0
        assert victim.get().name == victim.name  # still fetchable

    @pytest.mark.parametrize(
        "signal", ["invalidate", "invalidate_instrs"]
    )
    def test_an_invalidated_body_is_encoded_and_stored(self, signal):
        loader, _, victim = offloaded_loader()
        encodes = loader.stats.compactions
        routine = victim.get()
        routine.source_lines = 777
        getattr(routine, signal)()
        loader.evict(victim)
        assert loader.stats.clean_evictions == 0
        assert loader.stats.compactions == encodes + 1
        assert victim.get().source_lines == 777

    def test_a_prefetched_body_is_clean_too(self):
        loader, _, victim = offloaded_loader()
        loader.prefetch([victim])
        assert loader.prefetch_wait(timeout=30.0)
        victim.get()
        assert loader.stats.prefetch_hits == 1
        loader.evict(victim)
        loader.stop_prefetch()
        assert loader.stats.clean_evictions == 1

    def test_bytes_held_in_memory_keep_todays_behaviour(self):
        """Below OFFLOAD the compact bytes are the modeled memory: a
        clean body still becomes a COMPACT pool holding them."""
        loader, _, victim = offloaded_loader()
        victim.get()
        loader.config.level = NaimLevel.IR_COMPACT
        loader.evict(victim)
        assert victim.peek_state() is PoolState.COMPACT
        assert loader.stats.clean_evictions == 0
        assert victim.pool.resident_bytes() > 0
        # Decoded from memory, not from the repository: not clean.
        loader.config.level = NaimLevel.OFFLOAD
        victim.get()
        loader.evict(victim)
        assert loader.stats.clean_evictions == 0

    def test_checked_loader_names_the_mutator_that_forgot(self):
        loader, _, victim = offloaded_loader(checked=True)
        loader.phase = "replay"
        victim.get().source_lines = 777  # no invalidate()
        with pytest.raises(UnsignalledMutationError) as raised:
            loader.evict(victim)
        assert raised.value.routine == victim.name
        assert raised.value.phase == "replay"
        assert victim.name in str(raised.value)

    def test_checked_loader_accepts_a_clean_eviction(self):
        loader, _, victim = offloaded_loader(checked=True)
        victim.get().predecessors()
        loader.evict(victim)
        assert loader.stats.clean_evictions == 1


class TestReleasedHandles:
    def test_a_released_expanded_pool_does_not_answer(self):
        _, loader, handles = make_loader(NaimLevel.OFF)
        loader.release(handles["f0"])
        assert handles["f0"].peek_state() is PoolState.RELEASED
        with pytest.raises(KeyError) as raised:
            handles["f0"].get()
        assert isinstance(raised.value, ReleasedPoolError)
        assert "ir:f0" in str(raised.value)

    def test_a_released_offloaded_pool_is_not_refetched(self):
        """The repository's copy is the last body *stored*; handing it
        to a late reader would pass off pre-scalar IL as current."""
        loader, _, victim = offloaded_loader()
        loader.release_spent(victim)
        fetches = loader.repository.fetches
        with pytest.raises(ReleasedPoolError):
            victim.get()
        assert loader.repository.fetches == fetches
        assert loader.stats.released_spent == 1

    def test_release_discards_a_staged_prefetch(self):
        loader, handles, victim = offloaded_loader()
        loader.prefetch(handles.values())
        assert loader.prefetch_wait(timeout=30.0)
        staged = loader.prefetch_staged()
        loader.release(victim)
        loader.stop_prefetch()
        assert loader.prefetch_staged() == staged - 1


class TestPinning:
    def test_pinned_pool_never_evicted(self):
        _, loader, handles = make_loader(NaimLevel.OFFLOAD, cache_pools=1)
        name = sorted(handles)[0]
        handles[name].get()  # ensure expanded before pinning
        loader.pin(handles[name])
        loader.request_unload_all()
        assert handles[name].peek_state() is PoolState.EXPANDED
        loader.unpin(handles[name])
        # Touch another pool so the unpinned one is no longer newest.
        other = sorted(handles)[1]
        handles[other].get()
        loader.request_unload_all()
        assert handles[name].peek_state() is not PoolState.EXPANDED


class TestThresholds:
    def test_auto_level_progression(self):
        config = NaimConfig(physical_memory_bytes=1000)
        assert config.effective_level(100) is NaimLevel.OFF
        assert config.effective_level(300) is NaimLevel.IR_COMPACT
        assert config.effective_level(600) is NaimLevel.ST_COMPACT
        assert config.effective_level(900) is NaimLevel.OFFLOAD

    def test_pinned_level_ignores_memory(self):
        config = NaimConfig.pinned(NaimLevel.IR_COMPACT)
        assert config.effective_level(10**12) is NaimLevel.IR_COMPACT

    def test_small_compiles_pay_nothing(self):
        """Below thresholds nothing is ever compacted (paper section 4.3)."""
        program = make_program(3)
        loader = Loader(
            NaimConfig(physical_memory_bytes=1024 * 1024 * 1024),
            program.symtab,
        )
        handles = [
            loader.register_routine(r) for r in program.all_routines()
        ]
        for handle in handles:
            handle.request_unload()
        assert loader.stats.compactions == 0

    def test_cache_pools_derived_from_memory(self):
        small = NaimConfig(physical_memory_bytes=1024 * 1024)
        big = NaimConfig(physical_memory_bytes=1024 * 1024 * 1024)
        assert big.cache_pools > small.cache_pools


class TestAccounting:
    def test_memory_falls_after_eviction(self):
        _, loader, handles = make_loader(NaimLevel.OFFLOAD, cache_pools=2)
        before = loader.current_bytes()
        for handle in handles.values():
            handle.request_unload()
        assert loader.current_bytes() < before

    def test_duplicate_registration_rejected(self):
        program, loader, handles = make_loader(NaimLevel.OFF)
        with pytest.raises(ValueError):
            loader.register_routine(program.routine("main"))

    def test_drop_removes_pool(self):
        _, loader, handles = make_loader(NaimLevel.OFF)
        name = sorted(handles)[0]
        loader.drop(handles[name])
        assert (
            loader.accountant.category_total("ir")
            < sum(1 for _ in handles) * 10**9
        )
        assert all(p.name != name for p in loader.pools())


class TestOwnershipTransfer:
    def test_drop_discards_repository_entry(self):
        _, loader, handles = make_loader(NaimLevel.OFFLOAD, cache_pools=1)
        loader.request_unload_all()
        victim = next(
            h for h in sorted(handles.values(), key=lambda h: h.name)
            if h.peek_state() is PoolState.OFFLOADED
        )
        assert loader.repository.contains("ir", victim.name)
        loader.drop(victim)
        assert not loader.repository.contains("ir", victim.name)

    def test_release_keeps_repository_entry(self):
        _, loader, handles = make_loader(NaimLevel.OFFLOAD, cache_pools=1)
        loader.request_unload_all()
        victim = next(
            h for h in sorted(handles.values(), key=lambda h: h.name)
            if h.peek_state() is PoolState.OFFLOADED
        )
        loader.release(victim)
        assert loader.repository.contains("ir", victim.name)
        assert all(p.name != victim.name for p in loader.pools())

    def test_release_zeroes_accounting(self):
        _, loader, handles = make_loader(NaimLevel.OFF)
        for handle in list(handles.values()):
            loader.release(handle)
        assert loader.accountant.category_total("ir") == 0

    def test_privatize_copies_a_registered_body_once(self):
        _, loader, handles = make_loader(NaimLevel.OFF)
        borrowed = handles["f0"].get()
        loader.privatize(handles["f0"])
        private = handles["f0"].get()
        assert private is not borrowed
        assert private.instr_count() == borrowed.instr_count()
        loader.privatize(handles["f0"])
        assert handles["f0"].get() is private

    def test_privatize_leaves_a_decoded_body_alone(self):
        _, loader, handles = make_loader(NaimLevel.IR_COMPACT, cache_pools=1)
        loader.evict(handles["f0"])
        assert handles["f0"].peek_state() is PoolState.COMPACT
        decoded = handles["f0"].get()
        loader.privatize(handles["f0"])
        assert handles["f0"].get() is decoded

    def test_privatize_leaves_an_adopted_body_alone(self):
        program, loader, handles = make_loader(NaimLevel.OFF)
        routine = handles["f0"].get()
        loader.release(handles["f0"])
        handle = loader.adopt_routine("f0", expanded=routine)
        loader.privatize(handle)
        assert handle.get() is routine

    def test_adopt_expanded(self):
        program, loader, handles = make_loader(NaimLevel.OFF)
        routine = handles["f0"].get()
        loader.release(handles["f0"])
        other = Loader(
            NaimConfig.pinned(NaimLevel.OFF), program.symtab,
        )
        handle = other.adopt_routine("f0", expanded=routine)
        assert handle.peek_state() is PoolState.EXPANDED
        assert handle.get() is routine

    def test_adopt_compact_roundtrip(self):
        from repro.naim import compact_routine

        program, loader, handles = make_loader(NaimLevel.OFF)
        routine = handles["f0"].get()
        data = compact_routine(routine, program.symtab)
        other = Loader(NaimConfig.pinned(NaimLevel.OFF), program.symtab)
        handle = other.adopt_routine("f0", compact_bytes=data)
        assert handle.peek_state() is PoolState.COMPACT
        assert handle.get().name == "f0"

    def test_adopt_offloaded_fetches_from_repository(self):
        from repro.naim import compact_routine

        program, loader, handles = make_loader(NaimLevel.OFF)
        routine = handles["f1"].get()
        repo = Repository(in_memory=True)
        repo.store("ir", "f1", compact_routine(routine, program.symtab))
        other = Loader(
            NaimConfig.pinned(NaimLevel.OFF), program.symtab,
            repository=repo,
        )
        handle = other.adopt_routine("f1", offloaded=True)
        assert handle.peek_state() is PoolState.OFFLOADED
        assert handle.get().name == "f1"
        assert other.stats.repository_fetches == 1

    def test_adopt_requires_a_state(self):
        program, loader, _ = make_loader(NaimLevel.OFF)
        with pytest.raises(ValueError):
            loader.adopt_routine("ghost")


class TestPrefetch:
    def test_prefetch_batches_offloaded_pools(self):
        _, loader, handles = make_loader(NaimLevel.OFFLOAD, cache_pools=1)
        loader.request_unload_all()
        offloaded = [
            h for h in handles.values()
            if h.peek_state() is PoolState.OFFLOADED
        ]
        assert offloaded
        queued = loader.prefetch(handles.values())
        assert queued == len(offloaded)
        assert loader.stats.prefetches == len(offloaded)
        assert loader.prefetch_wait(timeout=30.0)
        assert loader.repository.batch_fetches >= 1
        # Prefetch stages decoded objects off to the side; pool state
        # only changes when the owner thread consumes them via touch.
        assert all(
            h.peek_state() is PoolState.OFFLOADED for h in offloaded
        )
        assert loader.prefetch_staged() == len(offloaded)
        # Touching a prefetched pool needs no further repository fetch.
        before = loader.repository.fetches
        assert offloaded[0].get() is not None
        assert loader.repository.fetches == before
        assert loader.stats.prefetch_hits == 1
        loader.stop_prefetch()

    def test_prefetch_without_offloaded_pools_is_free(self):
        _, loader, handles = make_loader(NaimLevel.OFF)
        assert loader.prefetch(handles.values()) == 0
        assert loader.repository.batch_fetches == 0


class TestOneDecoder:
    """``touch`` and the prefetch pipeline decode a pool the same way:
    every block, eagerly, into plain lists."""

    def test_a_corrupt_offloaded_pool_fails_at_touch(self):
        from repro.ir.basic_block import BasicBlock
        from repro.ir.instructions import Instr, Opcode
        from repro.ir.routine import Routine
        from repro.ir.symbols import ProgramSymbolTable
        from repro.naim.compaction import CompactionError, compact_routine

        symtab = ProgramSymbolTable()
        routine = Routine("jumper")
        block = BasicBlock("entry")
        block.instrs.append(Instr(Opcode.JMP, targets=("entry",)))
        routine.blocks.append(block)
        data = bytearray(compact_routine(routine, symtab))
        # The final varints are the JMP's label index (0) followed by
        # the annotation count; corrupt the label index.
        assert data[-2] == 0
        data[-2] = 0x7F
        loader = Loader(NaimConfig.pinned(NaimLevel.OFFLOAD), symtab,
                        repository=Repository(in_memory=True))
        loader.repository.store(KIND_IR, "jumper", bytes(data))
        handle = loader.adopt_routine("jumper", offloaded=True)
        with pytest.raises(CompactionError) as excinfo:
            handle.get()
        assert excinfo.value.field == "label index"

    def test_touch_and_prefetch_decode_the_same_plain_lists(self):
        loader, _, touched = offloaded_loader()
        synchronous = touched.get()
        assert loader.stats.repository_fetches == 1
        loader, _, staged = offloaded_loader()
        loader.prefetch([staged])
        assert loader.prefetch_wait(timeout=30.0)
        prefetched = staged.get()
        loader.stop_prefetch()
        assert loader.stats.prefetch_hits == 1
        assert staged.name == touched.name
        assert routines_equal(synchronous, prefetched)
        for routine in (synchronous, prefetched):
            assert all(type(block.instrs) is list
                       for block in routine.blocks)
            assert type(routine.annotations) is dict
