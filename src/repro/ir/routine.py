"""Routines: the unit of optimization, compaction and code generation."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .basic_block import BasicBlock
from .derived import DerivedCache, derived_analysis
from .errors import IRError
from .instructions import Instr, Opcode


_CALL = Opcode.CALL
_GLOBAL_ACCESS_OPS = frozenset(
    {Opcode.LOADG, Opcode.STOREG, Opcode.LOADE, Opcode.STOREE}
)


@derived_analysis("block_map", cfg_shaped=True)
def _block_map(routine: "Routine") -> Dict[str, BasicBlock]:
    return {block.label: block for block in routine.blocks}


@derived_analysis("preds", cfg_shaped=True)
def _predecessors(routine: "Routine") -> Dict[str, List[str]]:
    preds: Dict[str, List[str]] = {b.label: [] for b in routine.blocks}
    for block in routine.blocks:
        for succ in block.successors():
            if succ in preds:
                preds[succ].append(block.label)
    return preds


class Routine:
    """A single IL routine (function).

    A routine owns an ordered list of basic blocks; the first block is
    the entry.  Parameters arrive in virtual registers ``0..n_params-1``.
    Virtual registers are routine-local and unbounded.

    Routines are *transitory* objects in NAIM terms: they have an
    expanded form (this class) and a relocatable compact form (see
    :mod:`repro.naim.compaction`).  Analysis results hang off
    :attr:`derived` and are dropped on mutation or unload.
    """

    __slots__ = (
        "name",
        "module_name",
        "n_params",
        "blocks",
        "exported",
        "source_lines",
        "source_language",
        "next_reg",
        "derived",
        "annotations",
        "_sized",
    )

    def __init__(
        self,
        name: str,
        module_name: str = "",
        n_params: int = 0,
        exported: bool = True,
        source_lines: int = 0,
        source_language: str = "mll",
    ) -> None:
        self.name = name
        self.module_name = module_name
        self.n_params = n_params
        self.blocks: List[BasicBlock] = []
        self.exported = exported
        #: Source-line count attributed to this routine (metrics/memory).
        self.source_lines = source_lines
        #: Recorded for diagnostics only; HLO never consults it (paper §3).
        self.source_language = source_language
        self.next_reg = n_params
        self.derived = DerivedCache()
        #: Free-form optimizer annotations (e.g. "inlined_from").
        self.annotations: Dict[str, object] = {}
        #: (``derived.mutations``, instruction count) of the last
        #: :meth:`sized_instr_count` walk.
        self._sized: Optional[Tuple[int, int]] = None

    # -- Block management ---------------------------------------------------

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError("routine %s has no blocks" % self.name)
        return self.blocks[0]

    def new_block(self, hint: str = "bb") -> BasicBlock:
        """Create, append and return a fresh uniquely-labelled block:
        ``<hint><n>``, the first free ``n`` from the block count on.

        The labels in use survive from one call to the next
        (:attr:`DerivedCache.labels`) until another mutation drops
        them, so a run of calls -- a frontend lowering a routine --
        checks each label once instead of collecting them all again."""
        derived = self.derived
        labels = derived.labels
        if labels is None:
            labels = {block.label for block in self.blocks}
        index = len(self.blocks)
        label = "%s%d" % (hint, index)
        while label in labels:
            index += 1
            label = "%s%d" % (hint, index)
        block = BasicBlock(label)
        self.blocks.append(block)
        self.invalidate()
        labels.add(label)
        derived.labels = labels
        return block

    def block(self, label: str) -> BasicBlock:
        """Find a block by label (derived-cached map)."""
        try:
            return _block_map(self)[label]
        except KeyError:
            raise IRError("no block %r in routine %s" % (label, self.name))

    def block_labels(self) -> List[str]:
        return [block.label for block in self.blocks]

    def remove_blocks(self, labels: "set[str]") -> None:
        """Delete the named blocks (callers must have unlinked them)."""
        self.blocks = [b for b in self.blocks if b.label not in labels]
        self.invalidate()

    # -- Register management --------------------------------------------------

    def new_reg(self) -> int:
        reg = self.next_reg
        self.next_reg += 1
        return reg

    def param_regs(self) -> Tuple[int, ...]:
        return tuple(range(self.n_params))

    # -- Derived data ---------------------------------------------------------

    def invalidate(self) -> None:
        """Drop all derived analysis results (call after any mutation)."""
        self.derived.invalidate()

    def invalidate_instrs(self) -> None:
        """Drop the results that read straight-line instructions (call
        after a rewrite that touched no terminator and no block list)."""
        self.derived.invalidate_instrs()

    def predecessors(self) -> Dict[str, List[str]]:
        """Map block label -> predecessor labels (derived)."""
        return _predecessors(self)

    # -- Queries --------------------------------------------------------------

    def iter_instrs(self) -> Iterator[Tuple[BasicBlock, int, Instr]]:
        """Yield (block, index, instr) over the whole routine, in order."""
        for block in self.blocks:
            for index, instr in enumerate(block.instrs):
                yield block, index, instr

    def call_sites(self) -> List[Tuple[str, int, str]]:
        """All calls as (block_label, instr_index, callee_name)."""
        sites = []
        for block in self.blocks:
            for index, instr in block.calls():
                assert instr.sym is not None
                sites.append((block.label, index, instr.sym))
        return sites

    def callees(self) -> List[str]:
        """Distinct callee names, in first-occurrence order."""
        seen: Dict[str, None] = {}
        for block in self.blocks:
            for instr in block.instrs:
                if instr.op is _CALL:
                    assert instr.sym is not None
                    seen[instr.sym] = None
        return list(seen)

    def instr_count(self) -> int:
        return sum(len(block) for block in self.blocks)

    def sized_instr_count(self) -> int:
        """:meth:`instr_count`, walked once per mutation signal: the
        count is kept with :attr:`DerivedCache.mutations` and reused
        while that is unchanged (every mutator calls :meth:`invalidate`
        or :meth:`invalidate_instrs`, which is what the NAIM loader's
        clean evictions already trust)."""
        mutations = self.derived.mutations
        sized = self._sized
        if sized is None or sized[0] != mutations:
            sized = self._sized = (mutations, self.instr_count())
        return sized[1]

    def referenced_globals(self) -> List[str]:
        """Distinct global symbols touched, in first-occurrence order."""
        seen: Dict[str, None] = {}
        for block in self.blocks:
            for instr in block.instrs:
                if instr.op in _GLOBAL_ACCESS_OPS:
                    assert instr.sym is not None
                    seen[instr.sym] = None
        return list(seen)

    def qualified_name(self) -> str:
        if self.exported or not self.module_name:
            return self.name
        return "%s::%s" % (self.module_name, self.name)

    def copy(self, new_name: Optional[str] = None) -> "Routine":
        """Deep-copy the routine (used by inlining and cloning)."""
        clone = Routine(
            new_name or self.name,
            module_name=self.module_name,
            n_params=self.n_params,
            exported=self.exported,
            source_lines=self.source_lines,
            source_language=self.source_language,
        )
        clone.blocks = [block.copy() for block in self.blocks]
        clone.next_reg = self.next_reg
        clone.annotations = dict(self.annotations)
        return clone

    def __repr__(self) -> str:
        return "<Routine %s (%d blocks, %d instrs)>" % (
            self.name,
            len(self.blocks),
            self.instr_count(),
        )
