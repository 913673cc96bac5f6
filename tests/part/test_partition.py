"""Unit tests for the LTRANS partitioner: balance, affinity,
determinism."""

from types import SimpleNamespace

import pytest

from repro.part.partition import (
    BALANCE_SLACK,
    ROUTINE_BASE_WEIGHT,
    Partition,
    module_weights,
    partition_unit,
)


def stub_result(module_routines, weights=None, pairs=None, reused=()):
    """A minimal HloResult stand-in for the partitioner.

    ``module_routines``: {module: [routine, ...]} (insertion order is
    the unit order).  ``weights``: {routine: profile weight}.
    ``pairs``: inline module-pair counts.
    """
    routine_module = {}
    names = []
    for module, routines in module_routines.items():
        for name in routines:
            routine_module[name] = module
            names.append(name)
    views = {
        name: SimpleNamespace(block_counts={"entry": weight})
        for name, weight in (weights or {}).items()
    }
    unit = SimpleNamespace(
        routine_names=lambda: list(names),
        routine_module=routine_module,
    )
    return SimpleNamespace(
        unit=unit,
        ctx=SimpleNamespace(views=views),
        inline_stats=SimpleNamespace(module_pairs=dict(pairs or {})),
        reused_modules=set(reused),
        pending_plan=None,
    )


class TestWeights:
    def test_base_weight_per_routine(self):
        result = stub_result({"m0": ["a", "b"], "m1": ["c"]})
        weights = module_weights(result)
        assert weights == {
            "m0": 2 * ROUTINE_BASE_WEIGHT,
            "m1": ROUTINE_BASE_WEIGHT,
        }

    def test_profile_counts_add_in(self):
        result = stub_result({"m0": ["a"]}, weights={"a": 100})
        assert module_weights(result)["m0"] == ROUTINE_BASE_WEIGHT + 100

    def test_reused_modules_have_no_weight(self):
        result = stub_result({"m0": ["a"], "m1": ["b"]}, reused={"m1"})
        assert "m1" not in module_weights(result)


class TestPartitioning:
    def test_every_module_in_exactly_one_partition(self):
        result = stub_result(
            {"m%d" % i: ["f%d" % i] for i in range(10)},
        )
        partitions = partition_unit(result, 4)
        seen = [m for p in partitions for m in p.modules]
        assert sorted(seen) == sorted("m%d" % i for i in range(10))
        assert len(seen) == len(set(seen))

    def test_routines_preserve_unit_order(self):
        result = stub_result(
            {"m0": ["x", "a"], "m1": ["k"], "m2": ["b", "y"]},
        )
        partitions = partition_unit(result, 1)
        assert len(partitions) == 1
        # Unit insertion order, not sorted order.
        assert partitions[0].routines == ["x", "a", "k", "b", "y"]

    def test_balance_lpt_bound(self):
        # Skewed weights: the heaviest bin never exceeds the classic
        # LPT bound of ideal + one cluster.
        weights = {"f%d" % i: (i * 37) % 211 for i in range(24)}
        result = stub_result(
            {"m%d" % i: ["f%d" % i] for i in range(24)}, weights=weights
        )
        n = 4
        partitions = partition_unit(result, n)
        total = sum(p.weight for p in partitions)
        heaviest_cluster = max(p.weight for p in partitions)
        ideal = total / n
        cap = max(ideal * BALANCE_SLACK, heaviest_cluster)
        assert max(p.weight for p in partitions) <= ideal + cap

    def test_affinity_pair_colocated(self):
        result = stub_result(
            {"m%d" % i: ["f%d" % i] for i in range(8)},
            pairs={("m1", "m6"): 5},
        )
        partitions = partition_unit(result, 4)
        holder = [p for p in partitions if "m1" in p.modules]
        assert len(holder) == 1
        assert "m6" in holder[0].modules

    def test_affinity_yields_to_balance_cap(self):
        # Two giant modules inlined into each other: merging them would
        # put most of the program on one worker, so the edge is cut.
        weights = {"fa": 1000, "fb": 1000, "fc": 10, "fd": 10}
        result = stub_result(
            {"ma": ["fa"], "mb": ["fb"], "mc": ["fc"], "md": ["fd"]},
            weights=weights,
            pairs={("ma", "mb"): 50},
        )
        partitions = partition_unit(result, 2)
        holder = [p for p in partitions if "ma" in p.modules][0]
        assert "mb" not in holder.modules

    def test_deterministic(self):
        kwargs = dict(
            weights={"f%d" % i: i * 13 for i in range(12)},
            pairs={("m1", "m4"): 3, ("m2", "m9"): 7, ("m0", "m5"): 7},
        )
        a = partition_unit(
            stub_result({"m%d" % i: ["f%d" % i] for i in range(12)},
                        **kwargs), 3)
        b = partition_unit(
            stub_result({"m%d" % i: ["f%d" % i] for i in range(12)},
                        **kwargs), 3)
        assert [(p.index, p.modules, p.routines, p.weight) for p in a] == [
            (p.index, p.modules, p.routines, p.weight) for p in b
        ]

    def test_reused_modules_excluded(self):
        result = stub_result(
            {"m0": ["a"], "m1": ["b"], "m2": ["c"]}, reused={"m1"}
        )
        partitions = partition_unit(result, 2)
        modules = [m for p in partitions for m in p.modules]
        assert "m1" not in modules
        routines = [r for p in partitions for r in p.routines]
        assert "b" not in routines

    def test_empty_unit(self):
        assert partition_unit(stub_result({}), 4) == []

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            partition_unit(stub_result({"m0": ["a"]}), 0)

    def test_single_partition_takes_everything(self):
        result = stub_result({"m%d" % i: ["f%d" % i] for i in range(5)})
        partitions = partition_unit(result, 1)
        assert len(partitions) == 1
        assert len(partitions[0].modules) == 5

    def test_indices_are_dense(self):
        result = stub_result({"m%d" % i: ["f%d" % i] for i in range(3)})
        partitions = partition_unit(result, 8)  # more bins than modules
        assert [p.index for p in partitions] == list(range(len(partitions)))

    def test_repr(self):
        part = Partition(0, ["m0"], ["f0"], 16)
        assert "Partition 0" in repr(part)
