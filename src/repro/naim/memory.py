"""Modeled memory accounting (paper Figures 4 and 5).

The paper reports compiler memory in MB of process space; a Python
reproduction cannot meaningfully sample RSS (interpreter overhead would
swamp the signal), so we *account* memory instead: every live compiler
data structure reports its modeled byte size from a per-object cost
table, and the :class:`MemoryAccountant` tracks current and peak totals
per category.  The cost table is calibrated so an all-expanded build
comes out near the paper's 1.7 KB per source line, with IR compaction
reducing that to roughly 0.9 KB (paper §8); the calibration test pins
these ranges.

Accounting is deterministic and platform-independent, which the paper
itself demanded of the real system for reproducibility (§6.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..ir.callgraph import CallGraph
    from ..ir.routine import Routine
    from ..ir.symbols import ModuleSymbolTable, ProgramSymbolTable


class CostTable:
    """Modeled byte costs of expanded compiler objects.

    The expanded figures deliberately include the "about 2/3 of an
    object" of derived-data attribute fields the paper describes --
    compaction omits them, which is where most of the space win comes
    from (§4.2.2).
    """

    #: One expanded IL instruction, including derived-attribute fields
    #: (calibrated so an all-expanded build lands near the paper's
    #: 1.7 KB per source line at ~3.2 IL instructions per line).
    EXPANDED_INSTR = 450
    #: One expanded basic block (list headers, preds cache slots...).
    EXPANDED_BLOCK = 300
    #: Fixed per-routine overhead (object headers, maps, annotations).
    EXPANDED_ROUTINE = 1200
    #: One expanded module symbol-table entry.
    EXPANDED_SYMBOL = 400
    #: Fixed per-module symbol-table overhead.
    EXPANDED_SYMTAB = 1024
    #: One program symbol-table entry (global object, always resident).
    PROGRAM_SYMBOL = 48
    #: One call-graph node / call site (global objects).
    CALLGRAPH_NODE = 64
    CALLGRAPH_SITE = 32
    #: Derived analysis results, per instruction, when present.
    DERIVED_PER_INSTR = 160
    #: LLO working memory is quadratic in routine size (paper, Figure 4
    #: caption); cost = LLO_BASE + LLO_QUAD * n_instr^2 / 1024.
    LLO_BASE = 2048
    LLO_QUAD = 160
    #: Summary-only WPA: per-routine facts record (fixed fields, view
    #: reference) plus per-call-site and per-argument entries.  Sized so
    #: the whole summary graph is ~1-2 orders of magnitude below the
    #: expanded IR it stands in for.
    SUMMARY_ROUTINE = 96
    SUMMARY_SITE = 40
    SUMMARY_ARG = 12


def expanded_routine_bytes(routine: "Routine") -> int:
    """Modeled bytes of a routine's expanded IR.  An unchanged body is
    sized without walking it (:meth:`Routine.sized_instr_count`)."""
    n_instr = routine.sized_instr_count()
    n_blocks = len(routine.blocks)
    cost = (
        CostTable.EXPANDED_ROUTINE
        + n_blocks * CostTable.EXPANDED_BLOCK
        + n_instr * CostTable.EXPANDED_INSTR
    )
    if len(routine.derived):
        cost += n_instr * CostTable.DERIVED_PER_INSTR
    return cost


def expanded_symtab_bytes(symtab: "ModuleSymbolTable") -> int:
    """Modeled bytes of an expanded module symbol table."""
    return (
        CostTable.EXPANDED_SYMTAB
        + symtab.symbol_count() * CostTable.EXPANDED_SYMBOL
    )


def program_symtab_bytes(symtab: "ProgramSymbolTable") -> int:
    """Modeled bytes of the always-resident program symbol table."""
    return symtab.symbol_count() * CostTable.PROGRAM_SYMBOL


def callgraph_bytes(callgraph: "CallGraph") -> int:
    """Modeled bytes of the call graph, resident while the WPA decides."""
    sites = sum(len(node.call_sites) for node in callgraph.nodes.values())
    return (
        len(callgraph.nodes) * CostTable.CALLGRAPH_NODE
        + sites * CostTable.CALLGRAPH_SITE
    )


def routine_facts_bytes(facts) -> int:
    """Modeled bytes of one routine's WPA summary record.

    This is what bounds the WPA's peak: the whole-program phases keep
    only these, the call graph over them and the program symbol table,
    never expanded bodies.  All but the symbol table die with the WPA;
    LTRANS is charged the symbol table and its body working set.
    """
    n_args = sum(len(site.args) for site in facts.sites)
    return (
        CostTable.SUMMARY_ROUTINE
        + (len(facts.sites) + len(facts.rets)) * CostTable.SUMMARY_SITE
        + n_args * CostTable.SUMMARY_ARG
        + len(facts.referenced_globals) * CostTable.SUMMARY_ARG
    )


def llo_working_bytes(n_instr: int) -> int:
    """Modeled LLO working-set bytes for a routine of ``n_instr`` instrs.

    The paper's Figure 4 caption: "LLO's memory requirements increase
    quadratically as the sizes of the routines it processes are
    increased" -- inlining grows routines, which is why overall compiler
    memory grows faster than HLO memory.
    """
    return CostTable.LLO_BASE + (CostTable.LLO_QUAD * n_instr * n_instr) // 1024


class MemoryAccountant:
    """Tracks modeled resident bytes by (category, name).

    Categories in use: ``global`` (program symtab for the whole link;
    summaries and call graph while the WPA decides),
    ``ir`` (routine pools), ``symtab`` (module symbol-table pools),
    ``llo`` (code-generator working set), ``misc``.
    """

    def __init__(self) -> None:
        self._usage: Dict[Tuple[str, str], int] = {}
        self._total = 0
        self.peak = 0
        #: (total, label) samples recorded by mark(); drives Figure 4.
        self.samples: List[Tuple[str, int]] = []
        #: Repository bytes memory-mapped from pack segments.  Tracked
        #: as a gauge *outside* the modeled resident total: mapped
        #: pages are OS-reclaimable page cache, and folding them into
        #: the total would let background-thread timing perturb NAIM
        #: threshold decisions (determinism rule, paper §6.2).
        self.mapped_bytes = 0
        #: Dead pack-entry bytes awaiting segment compaction.
        self.reclaimable_bytes = 0

    # -- Updates ------------------------------------------------------------

    def set_usage(self, category: str, name: str, nbytes: int) -> None:
        key = (category, name)
        old = self._usage.get(key, 0)
        if nbytes <= 0:
            if key in self._usage:
                del self._usage[key]
            delta = -old
        else:
            self._usage[key] = nbytes
            delta = nbytes - old
        self._total += delta
        if self._total > self.peak:
            self.peak = self._total

    def clear_category(self, category: str) -> None:
        for key in [k for k in self._usage if k[0] == category]:
            self._total -= self._usage.pop(key)

    def reset_peak(self) -> None:
        self.peak = self._total

    def reset_counters(self) -> None:
        """Per-build reset: drop the peak to the current total and
        forget recorded samples.  Live usage entries are kept -- state
        that is genuinely still resident (a warm coordinator's caches) must
        keep being accounted."""
        self.peak = self._total
        self.samples = []

    def mark(self, label: str) -> None:
        """Record a named sample of the current total."""
        self.samples.append((label, self._total))

    def set_mapped(self, nbytes: int) -> None:
        """Update the mapped-segment gauge (see ``mapped_bytes``)."""
        self.mapped_bytes = nbytes

    def set_reclaimable(self, nbytes: int) -> None:
        """Update the dead-repository-bytes gauge."""
        self.reclaimable_bytes = nbytes

    def merge(self, other: "MemoryAccountant") -> None:
        """Fold a worker's accountant into this one.

        Sequential-composition semantics: the other accountant's
        activity is accounted as if it ran after ours, so merging
        per-module worker accountants in source order reproduces
        exactly the numbers a serial build would have reported --
        deterministic regardless of the actual interleaving.
        """
        base = self._total
        if base + other.peak > self.peak:
            self.peak = base + other.peak
        for (category, name), nbytes in other._usage.items():
            key = (category, name)
            self.set_usage(category, name, self._usage.get(key, 0) + nbytes)
        self.samples.extend(
            (label, base + total) for label, total in other.samples
        )
        # Gauges, not flows: workers share the base repository, so the
        # mapped view is the max anyone saw, never a sum (which would
        # double-count the same mapping per worker).
        self.mapped_bytes = max(self.mapped_bytes, other.mapped_bytes)
        self.reclaimable_bytes = max(self.reclaimable_bytes,
                                     other.reclaimable_bytes)

    # -- Queries --------------------------------------------------------------

    @property
    def current(self) -> int:
        return self._total

    def usage(self, category: str, name: str) -> int:
        """Bytes charged to ``(category, name)``; 0 when none are."""
        return self._usage.get((category, name), 0)

    def category_total(self, category: str) -> int:
        return sum(
            nbytes for (cat, _), nbytes in self._usage.items() if cat == category
        )

    def by_category(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for (category, _), nbytes in self._usage.items():
            totals[category] = totals.get(category, 0) + nbytes
        return totals

    def report(self) -> str:
        lines = ["memory: current=%s peak=%s" % (fmt_bytes(self._total),
                                                 fmt_bytes(self.peak))]
        for category, total in sorted(self.by_category().items()):
            lines.append("  %-8s %s" % (category, fmt_bytes(total)))
        if self.mapped_bytes:
            lines.append("  mapped   %s (segment pages, OS-reclaimable)"
                         % fmt_bytes(self.mapped_bytes))
        if self.reclaimable_bytes:
            lines.append("  dead     %s (awaiting segment compaction)"
                         % fmt_bytes(self.reclaimable_bytes))
        return "\n".join(lines)


def fmt_bytes(nbytes: int) -> str:
    """Human-readable byte count."""
    value = float(nbytes)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024 or unit == "GB":
            return "%.1f%s" % (value, unit)
        value /= 1024
    raise AssertionError("unreachable")
