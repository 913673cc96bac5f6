"""Callgraph partitioning for the parallel LTRANS backend.

Splits the post-inline CMO unit into N partitions of roughly equal
profile weight, keeping modules that inlining tied together in the
same partition where balance allows (a balanced min-cut heuristic in
the spirit of GCC's WHOPR ``lto-partition``):

1. every non-reused module gets a weight -- the summed profile-view
   block counts of its routines plus a fixed per-routine cost, all
   derived from data the serial phases already hold, so no pool is
   loaded to plan the split;
2. inline affinity edges (the per-module-pair inline counts recorded
   by the inline engine) are folded strongest-first with a union-find,
   refusing any merge that would push a cluster past the balance cap;
3. clusters are packed onto N partitions largest-first (LPT), always
   onto the lightest bin.

Every step iterates sorted data, so the result is deterministic given
the program and profile.  Partitioning never affects correctness --
each routine is optimized independently -- only locality and balance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..hlo.driver import HloResult

#: Fixed modeled cost of one routine, so modules without profile
#: weight still occupy space in the balance computation.
ROUTINE_BASE_WEIGHT = 16

#: A cluster may grow to this multiple of the ideal partition weight
#: before an affinity merge is refused.
BALANCE_SLACK = 1.25


class Partition:
    """One LTRANS work unit: a set of modules and their routines."""

    def __init__(self, index: int, modules: List[str],
                 routines: List[str], weight: int,
                 imports: List[str] = None) -> None:
        self.index = index
        self.modules = modules
        #: Routine names in canonical unit order (the order downstream
        #: splicing preserves).
        self.routines = routines
        self.weight = weight
        #: Non-local routine bodies this partition's plan replay reads
        #: (splice callees and clone origins, closed transitively).
        #: Workers import exactly these -- read-only -- and nothing
        #: else; empty for partitions whose replay is self-contained.
        self.imports: List[str] = imports or []

    def __repr__(self) -> str:
        return "<Partition %d: %d modules, %d routines, weight=%d>" % (
            self.index, len(self.modules), len(self.routines), self.weight
        )


def module_weights(hlo_result: "HloResult") -> Dict[str, int]:
    """Profile weight per non-reused module, from views alone."""
    views = hlo_result.ctx.views
    weights: Dict[str, int] = {}
    for name in hlo_result.unit.routine_names():
        module = hlo_result.unit.routine_module.get(name)
        if module is None or module in hlo_result.reused_modules:
            continue
        weight = ROUTINE_BASE_WEIGHT
        view = views.get(name)
        if view is not None:
            weight += int(sum(view.block_counts.values()))
        weights[module] = weights.get(module, 0) + weight
    return weights


class _UnionFind:
    def __init__(self, items: List[str]) -> None:
        self.parent = {item: item for item in items}

    def find(self, item: str) -> str:
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        # Deterministic representative: the lexically smaller root.
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra


def partition_unit(hlo_result: "HloResult",
                   n_partitions: int) -> List[Partition]:
    """Split the unit into at most ``n_partitions`` balanced partitions.

    Reused (incremental-cache) modules are excluded -- they have no
    LTRANS work.  Empty partitions are dropped, so fewer than
    ``n_partitions`` may come back for small programs.
    """
    if n_partitions < 1:
        raise ValueError("n_partitions must be >= 1")
    weights = module_weights(hlo_result)
    modules = sorted(weights)
    if not modules:
        return []

    total = sum(weights.values())
    cap = max(
        int(total / n_partitions * BALANCE_SLACK),
        max(weights.values()),
    )

    # Fold inline affinity edges strongest-first under the balance cap.
    finder = _UnionFind(modules)
    cluster_weight = dict(weights)
    edges: List[Tuple[int, str, str]] = []
    for (caller_mod, callee_mod), count in (
        hlo_result.inline_stats.module_pairs.items()
    ):
        if caller_mod == callee_mod:
            continue
        if caller_mod in weights and callee_mod in weights:
            edges.append((count, caller_mod, callee_mod))
    edges.sort(key=lambda edge: (-edge[0], edge[1], edge[2]))
    for _count, a, b in edges:
        ra, rb = finder.find(a), finder.find(b)
        if ra == rb:
            continue
        if cluster_weight[ra] + cluster_weight[rb] > cap:
            continue
        finder.union(ra, rb)
        root = finder.find(ra)
        other = rb if root == ra else ra
        cluster_weight[root] = cluster_weight[ra] + cluster_weight[rb]
        del cluster_weight[other]

    clusters: Dict[str, List[str]] = {}
    for module in modules:
        clusters.setdefault(finder.find(module), []).append(module)

    # LPT bin packing: heaviest cluster first, always the lightest bin
    # (ties go to the lowest bin index).
    ordered = sorted(
        clusters.items(), key=lambda item: (-cluster_weight[item[0]], item[0])
    )
    bin_weight = [0] * n_partitions
    bin_modules: List[List[str]] = [[] for _ in range(n_partitions)]
    for root, members in ordered:
        lightest = min(range(n_partitions), key=lambda i: (bin_weight[i], i))
        bin_weight[lightest] += cluster_weight[root]
        bin_modules[lightest].extend(members)

    # Materialize, preserving canonical unit order inside each
    # partition and dropping empty bins.
    partitions: List[Partition] = []
    for index in range(n_partitions):
        if not bin_modules[index]:
            continue
        members = set(bin_modules[index])
        routines = [
            name
            for name in hlo_result.unit.routine_names()
            if hlo_result.unit.routine_module.get(name) in members
        ]
        partitions.append(
            Partition(
                len(partitions),
                sorted(members),
                routines,
                bin_weight[index],
            )
        )

    # Each partition lists the callee bodies its plan replay must read
    # from outside the partition, so workers fetch exactly (locals +
    # imports) and no more.
    plan = hlo_result.pending_plan
    if plan is not None:
        for partition in partitions:
            partition.imports = plan.imports_for(partition.routines)
    return partitions
