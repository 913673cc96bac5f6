"""Unit tests for the cross-module dependency edge set."""

from __future__ import annotations

from repro.incr.depgraph import (
    KIND_FACT,
    KIND_GLOBAL,
    KIND_INLINE,
    KIND_IPCP,
    CrossModuleDeps,
    DepEdge,
)


def chain():
    """a inlined from b, b consumed facts about c."""
    deps = CrossModuleDeps()
    deps.add("a", "b", KIND_INLINE, item="helper")
    deps.add("b", "c", KIND_FACT, item="leaf")
    return deps


class TestEdges:
    def test_self_edges_dropped(self):
        deps = CrossModuleDeps()
        deps.add("a", "a", KIND_INLINE, item="local")
        assert len(deps) == 0

    def test_duplicates_collapse(self):
        deps = CrossModuleDeps()
        deps.add("a", "b", KIND_INLINE, item="helper")
        deps.add("a", "b", KIND_INLINE, item="helper")
        assert len(deps) == 1

    def test_kinds_are_distinct_edges(self):
        deps = CrossModuleDeps()
        deps.add("a", "b", KIND_INLINE, item="helper")
        deps.add("a", "b", KIND_FACT, item="helper")
        assert len(deps) == 2
        assert deps.by_kind() == {KIND_INLINE: 1, KIND_FACT: 1}

    def test_navigation(self):
        deps = chain()
        assert deps.consumers_of("b") == {"a"}
        assert deps.producers_of("b") == {"c"}
        assert deps.consumers_of("a") == set()


class TestDirtyPropagation:
    def test_direct_consumer_is_dirty(self):
        assert chain().dirty_modules(["b"]) == {"a", "b"}

    def test_transitive_closure(self):
        """c changed -> b's post-inline body changed -> a's splice of b
        changed.  The fixpoint must reach a."""
        assert chain().dirty_modules(["c"]) == {"a", "b", "c"}

    def test_leaf_change_stays_local(self):
        deps = chain()
        deps.add("d", "c", KIND_GLOBAL, item="shared_buf")
        assert deps.dirty_modules(["a"]) == {"a"}
        assert deps.dirty_modules(["c"]) == {"a", "b", "c", "d"}

    def test_cycle_terminates(self):
        deps = CrossModuleDeps()
        deps.add("a", "b", KIND_IPCP, item="f")
        deps.add("b", "a", KIND_IPCP, item="g")
        assert deps.dirty_modules(["a"]) == {"a", "b"}


class TestSerialization:
    def test_roundtrip(self):
        deps = chain()
        restored = CrossModuleDeps.from_list(deps.to_list())
        assert restored.to_list() == deps.to_list()
        assert len(restored) == len(deps)
        assert restored.dirty_modules(["c"]) == deps.dirty_modules(["c"])

    def test_list_is_sorted_and_json_friendly(self):
        deps = CrossModuleDeps()
        deps.add("z", "y", KIND_FACT, item="f")
        deps.add("a", "b", KIND_INLINE, item="g")
        listed = deps.to_list()
        assert listed == sorted(listed)
        assert all(
            isinstance(field, str) for edge in listed for field in edge
        )

    def test_edge_identity(self):
        assert DepEdge("a", "b", KIND_INLINE, "f") == (
            DepEdge("a", "b", KIND_INLINE, "f")
        )
        assert DepEdge("a", "b", KIND_INLINE, "f") != (
            DepEdge("a", "b", KIND_FACT, "f")
        )


def reference_dirty_modules(deps, changed):
    """The closure as it was first written: one scan of every edge per
    module popped."""
    dirty = set(changed)
    frontier = list(dirty)
    while frontier:
        producer = frontier.pop()
        for consumer in deps.consumers_of(producer):
            if consumer not in dirty:
                dirty.add(consumer)
                frontier.append(consumer)
    return dirty


class TestDirtyPropagationMatchesTheReference:
    def test_on_random_graphs(self):
        import random

        kinds = (KIND_INLINE, KIND_IPCP, KIND_FACT, KIND_GLOBAL)
        for seed in range(40):
            rng = random.Random(seed)
            names = ["m%d" % index for index in range(rng.randint(1, 25))]
            deps = CrossModuleDeps()
            for _ in range(rng.randint(0, 80)):
                deps.add(rng.choice(names), rng.choice(names),
                         rng.choice(kinds), item="s%d" % rng.randint(0, 9))
            for _ in range(5):
                changed = rng.sample(names, rng.randint(0, len(names)))
                # A dropped module may be named that no edge mentions.
                changed.append("gone")
                assert deps.dirty_modules(changed) == (
                    reference_dirty_modules(deps, changed)
                )

    def test_on_the_edit_loop_graph(self):
        from repro.driver.build import BuildEngine
        from repro.driver.options import CompilerOptions
        from repro.synth import full_suite, generate

        app = generate(full_suite()["mcad1_like"].scaled(0.6))
        engine = BuildEngine(CompilerOptions(opt_level=4), incremental=True)
        engine.build(dict(app.sources))
        deps = engine.incr_state.deps
        assert len(deps) > 100
        for name in sorted(app.sources):
            assert deps.dirty_modules([name]) == (
                reference_dirty_modules(deps, [name])
            )
        everything = sorted(app.sources)
        assert deps.dirty_modules(everything) == set(everything)
