"""The WPA plan: import closure, partition import lists, fallback.

The byte-identity of images across every jobs/backend/incremental
setting is pinned by the golden-image test
(``tests/integration/test_determinism.py``) and the property suite
(``tests/property/test_prop_parallel_hlo.py``); these tests cover the
plan's own mechanics -- the replay plan's import closure, the
per-partition import lists, the stale-summary fallback, and the
flat-memory claim deciding from summaries exists for.
"""

from repro.driver.build import BuildEngine
from repro.driver.compiler import Compiler
from repro.driver.options import CompilerOptions
from repro.frontend import compile_sources
from repro.hlo.driver import HighLevelOptimizer
from repro.hlo.options import HloOptions
from repro.hlo.thin import CloneOp, SpliceOp, WpaPlan
from repro.linker.objects import encode_executable
from repro.naim.config import NaimConfig, NaimLevel
from repro.part.partition import partition_unit
from repro.synth import WorkloadConfig, generate

SOURCES = {
    "lib": """
global total = 0;
static global factor = 3;
func scale(x) { return x * factor; }
func step(a, b) {
    if (a > b) { return a - b; }
    return b - a;
}
func accumulate(n) {
    var acc = 0;
    for (var i = 0; i < n; i = i + 1) {
        acc = acc + scale(step(i, 7));
        total = total + 1;
    }
    return acc;
}
""",
    "main": """
func main() {
    var r = accumulate(50);
    return r + total;
}
""",
}


def synth_sources(seed=13, n_modules=6):
    return generate(WorkloadConfig(
        "thin%d" % seed, n_modules=n_modules, routines_per_module=3,
        n_features=2, dispatch_count=40, input_size=16, seed=seed,
    )).sources


class TestImportClosure:
    def test_splice_chain_is_transitive(self):
        plan = WpaPlan()
        plan.splices.append(SpliceOp("a", "b", 1))
        plan.splices.append(SpliceOp("b", "c", 1))
        assert plan.imports_for(["a"]) == ["b", "c"]
        assert plan.imports_for(["b"]) == ["c"]
        assert plan.imports_for(["c"]) == []

    def test_clone_needs_origin(self):
        plan = WpaPlan()
        plan.clones.append(
            CloneOp("f__c0", "f", ((0, 7),), [("g", "L0", 2)])
        )
        plan.splices.append(SpliceOp("f", "h", 1))
        # The clone's body comes from its origin, whose own replay
        # (the splice of h) must finish first.
        assert plan.imports_for(["f__c0"]) == ["f", "h"]
        # Retargets rewrite the caller in place: no body needed.
        assert plan.imports_for(["g"]) == []

    def test_local_set_imports_nothing(self):
        plan = WpaPlan()
        plan.splices.append(SpliceOp("a", "b", 1))
        assert plan.imports_for(["a", "b"]) == []

    def test_wire_round_trip(self):
        plan = WpaPlan()
        plan.bindings.append(("f", [(0, 3)]))
        plan.clones.append(CloneOp("f__c0", "f", ((0, 3),),
                                   [("g", "L2", 1)]))
        plan.splices.append(SpliceOp("g", "f__c0", 9))
        again = WpaPlan.from_dict(plan.to_dict())
        assert again.to_dict() == plan.to_dict()


class TestPartitionImports:
    def _thin_result(self, sources):
        program = compile_sources(sources)
        return HighLevelOptimizer(
            program, options=HloOptions()
        ).optimize(run_scalar=False)

    def test_partitions_scope_closed_under_plan(self):
        result = self._thin_result(synth_sources())
        assert result.pending_plan is result.plan
        partitions = partition_unit(result, 4)
        assert partitions, "synthetic app should partition"
        need = result.plan.import_closure()
        for partition in partitions:
            local = set(partition.routines)
            imports = set(partition.imports)
            assert not (local & imports)
            assert partition.imports == sorted(imports)
            scope = local | imports
            for name in scope:
                assert need(name) <= scope, (
                    "partition %d scope not closed at %s"
                    % (partition.index, name)
                )

    def test_single_partition_imports_nothing(self):
        # One partition holds every routine: the import list must be
        # empty -- and stay empty even though the plan is non-trivial.
        result = self._thin_result(synth_sources())
        assert not result.plan.is_empty()
        partitions = partition_unit(result, 1)
        assert len(partitions) == 1
        assert partitions[0].imports == []


class TestSummaryFallback:
    def test_corrupt_facts_blob_falls_back_with_event(self, tmp_path):
        sources = dict(SOURCES)
        engine = BuildEngine(
            CompilerOptions(opt_level=4),
            incremental=True,
        )
        first, _report = engine.build(sources)
        reference = encode_executable(first.executable)

        engine.incr_state.repository.store("summ", "lib", b"not json {")
        again, _report = engine.build(sources)
        assert encode_executable(again.executable) == reference
        events = [e for e in again.hlo_result.events
                  if e.get("event") == "summary-fallback"]
        assert events == [{
            "event": "summary-fallback",
            "module": "lib",
            "reason": "corrupt",
        }]
        # The poisoned blob was discarded and re-recorded: the next
        # build is clean again.
        third, _report = engine.build(sources)
        assert encode_executable(third.executable) == reference
        assert not [e for e in third.hlo_result.events
                    if e.get("event") == "summary-fallback"]

    def test_missing_facts_blob_falls_back_with_event(self):
        sources = dict(SOURCES)
        engine = BuildEngine(
            CompilerOptions(opt_level=4),
            incremental=True,
        )
        first, _report = engine.build(sources)
        reference = encode_executable(first.executable)
        engine.incr_state.repository.discard("summ", "main")
        again, _report = engine.build(sources)
        assert encode_executable(again.executable) == reference
        reasons = {(e["module"], e["reason"])
                   for e in again.hlo_result.events
                   if e.get("event") == "summary-fallback"}
        assert ("main", "missing") in reasons


class TestFlatMemory:
    def test_wpa_peak_tracks_summaries_not_bodies(self):
        def peak_and_routines(n_modules):
            build = Compiler(CompilerOptions(
                opt_level=4,
                naim=NaimConfig.pinned(NaimLevel.OFFLOAD, cache_pools=4),
            )).build(synth_sources(seed=29, n_modules=n_modules))
            hlo = build.hlo_result
            return (hlo.wpa_peak_bytes,
                    len(list(hlo.unit.routine_names())))

        small_peak, small_routines = peak_and_routines(3)
        big_peak, big_routines = peak_and_routines(24)
        routine_growth = big_routines / small_routines
        assert routine_growth >= 4.0, "sweep must actually scale"
        peak_growth = big_peak / small_peak
        # The summary graph grows with routine count; bodies must not
        # contribute, so peak growth stays well under routine growth.
        assert peak_growth <= 0.5 * routine_growth, (
            "WPA peak grew x%.2f across x%.2f routine "
            "growth" % (peak_growth, routine_growth)
        )
