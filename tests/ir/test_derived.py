"""Unit tests for the derived-data cache discipline."""

import pytest

from repro.frontend import compile_source, compile_sources
from repro.hlo.analysis.dominators import immediate_dominators
from repro.hlo.analysis.liveness import liveness
from repro.hlo.analysis.loops import find_loops
from repro.ir import Instr, IRError, Opcode
from repro.ir.derived import DerivedCache
from repro.naim import Loader, NaimConfig, NaimLevel, PoolState


class TestDerivedCache:
    def test_memoizes(self):
        cache = DerivedCache()
        calls = {"n": 0}

        def compute():
            calls["n"] += 1
            return [1, 2, 3]

        first = cache.get("thing", compute)
        second = cache.get("thing", compute)
        assert first is second
        assert calls["n"] == 1
        assert cache.recompute_count == 1

    def test_invalidate_drops_everything(self):
        cache = DerivedCache()
        cache.get("a", lambda: 1)
        cache.get("b", lambda: 2)
        assert len(cache) == 2
        cache.invalidate()
        assert len(cache) == 0
        assert cache.invalidate_count == 1
        # Recompute happens after invalidation.
        assert cache.get("a", lambda: 10) == 10
        assert cache.recompute_count == 3

    def test_invalidate_empty_is_free(self):
        cache = DerivedCache()
        cache.invalidate()
        assert cache.invalidate_count == 0

    def test_contains(self):
        cache = DerivedCache()
        assert "k" not in cache
        cache.get("k", lambda: None)
        assert "k" in cache


class TestInvalidationLevels:
    def test_instr_rewrite_keeps_cfg_shaped_results(self):
        cache = DerivedCache()
        shape = cache.get("shape", lambda: ["rpo"], cfg_shaped=True)
        cache.get("flow", lambda: ["live"])
        cache.invalidate_instrs()
        assert "flow" not in cache and "shape" in cache
        assert cache.get("shape", lambda: ["other"], cfg_shaped=True) is shape
        assert cache.invalidate_count == 1
        assert cache.recompute_count == 2

    def test_cfg_mutation_drops_both(self):
        cache = DerivedCache()
        cache.get("shape", lambda: 1, cfg_shaped=True)
        cache.get("flow", lambda: 2)
        cache.invalidate()
        assert len(cache) == 0
        assert cache.invalidate_count == 1

    def test_instr_invalidation_of_nothing_is_free(self):
        cache = DerivedCache()
        cache.get("shape", lambda: 1, cfg_shaped=True)
        cache.invalidate_instrs()
        assert cache.invalidate_count == 0
        assert "shape" in cache

    def test_registered_analyses_declare_their_class(self):
        routine = compile_source(
            "func f(a) { while (a > 0) { a = a - 1; } return a; }", "m"
        ).routines["f"]
        idom = immediate_dominators(routine)
        loops = find_loops(routine)
        live = liveness(routine)
        routine.invalidate_instrs()
        assert immediate_dominators(routine) is idom
        assert find_loops(routine) is loops
        assert liveness(routine) is not live
        for key in ("block_map", "preds", "reachable", "rpo", "idom",
                    "loops"):
            assert key in routine.derived
        routine.invalidate()
        assert len(routine.derived) == 0

    def test_verify_names_the_stale_result(self):
        routine = compile_source(
            "func f(a) { if (a) { a = 1; } return a; }", "m"
        ).routines["f"]
        immediate_dominators(routine)
        liveness(routine)
        routine.derived.verify(routine)  # fresh: nothing to report
        # Rewrite a terminator but declare an instruction-only change.
        routine.entry.instrs[-1] = Instr(
            Opcode.JMP, targets=(routine.entry.successors()[0],)
        )
        routine.invalidate_instrs()
        with pytest.raises(IRError, match="stale derived result"):
            routine.derived.verify(routine)

    def test_verify_leaves_cache_and_counters_alone(self):
        routine = compile_source("func f(a) { return a + 1; }", "m").routines["f"]
        live = liveness(routine)
        before = routine.derived.recompute_count
        routine.derived.verify(routine)
        assert liveness(routine) is live
        assert routine.derived.recompute_count == before

    def test_naim_unload_drops_both_classes(self):
        body = "func fN(a) { while (a > 0) { a = a - 1; } return a; }"
        program = compile_sources(dict(
            {"m%d" % i: body.replace("fN", "f%d" % i) for i in range(4)},
            mn="func main() { return f0(3); }",
        ))
        loader = Loader(
            NaimConfig.pinned(NaimLevel.IR_COMPACT, cache_pools=1),
            program.symtab,
        )
        handles = []
        for routine in program.all_routines():
            handles.append((routine, loader.register_routine(routine)))
            immediate_dominators(routine)
            liveness(routine)
        for _, handle in handles:
            handle.request_unload()
        unloaded = [
            (routine, handle) for routine, handle in handles
            if handle.peek_state() is PoolState.COMPACT
        ]
        assert unloaded
        for routine, handle in unloaded:
            assert len(routine.derived) == 0  # dropped before compaction
            assert len(handle.get().derived) == 0  # and never persisted
