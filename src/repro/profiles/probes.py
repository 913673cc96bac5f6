"""Probe insertion for profile collection (paper §3, "+I").

The instrumenter inserts counting probes into each routine:

* one **block probe** at the top of every basic block, and
* one **edge probe** on every critical conditional-branch edge (an edge
  whose target has multiple predecessors), realized by splitting the
  edge with a trampoline block.

Together these yield exact basic-block execution counts and exact
conditional-edge counts.  Call-site counts are derived (a call executes
exactly as often as its containing block).  Probe ids are program-wide
and dense; the :class:`ProbeTable` records what each id means plus the
structure checksum used later for stale-profile correlation.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..ir.basic_block import BasicBlock
from ..ir.instructions import Instr, Opcode
from ..ir.program import Program
from ..ir.routine import Routine
from .correlate import checksum_routine


class ProbeInfo:
    """What one probe id measures."""

    __slots__ = ("probe_id", "routine", "kind", "key")

    def __init__(self, probe_id: int, routine: str, kind: str, key: Tuple) -> None:
        self.probe_id = probe_id
        self.routine = routine
        #: "block" (key = (label,)) or "edge" (key = (from_label, to_label)).
        self.kind = kind
        self.key = key

    def __repr__(self) -> str:
        return "<ProbeInfo %d %s %s%r>" % (
            self.probe_id,
            self.routine,
            self.kind,
            self.key,
        )


class EdgeSource:
    """How to obtain one conditional edge's count from probe counts."""

    __slots__ = ("from_label", "to_label", "probe_id")

    def __init__(self, from_label: str, to_label: str, probe_id: int) -> None:
        self.from_label = from_label
        self.to_label = to_label
        self.probe_id = probe_id


class ProbeTable:
    """Program-wide probe bookkeeping produced by instrumentation."""

    def __init__(self) -> None:
        self.probes: List[ProbeInfo] = []
        #: routine -> original structure checksum (pre-instrumentation).
        self.checksums: Dict[str, int] = {}
        #: routine -> conditional edges and their count sources.
        self.edges: Dict[str, List[EdgeSource]] = {}
        #: routine -> original block labels, in layout order.
        self.block_labels: Dict[str, List[str]] = {}
        #: routine -> call sites (block, index, callee) pre-instrumentation.
        self.call_sites: Dict[str, List[Tuple[str, int, str]]] = {}
        #: routine -> {original label: block probe id}.
        self.block_probe: Dict[str, Dict[str, int]] = {}

    def new_probe(self, routine: str, kind: str, key: Tuple) -> int:
        probe_id = len(self.probes)
        self.probes.append(ProbeInfo(probe_id, routine, kind, key))
        return probe_id

    def __len__(self) -> int:
        return len(self.probes)


def instrument_routine(routine: Routine, table: ProbeTable) -> None:
    """Insert probes into ``routine`` in place and record bookkeeping."""
    name = routine.name
    table.checksums[name] = checksum_routine(routine)
    table.block_labels[name] = routine.block_labels()
    table.call_sites[name] = routine.call_sites()

    preds = routine.predecessors()
    edge_sources: List[EdgeSource] = []
    trampolines: List[BasicBlock] = []
    pending_edges: List[Tuple[str, str]] = []
    used_labels = {block.label for block in routine.blocks}

    # Split critical conditional edges with probe trampolines.
    for block in routine.blocks:
        term = block.terminator
        if term is None or term.op is not Opcode.BR:
            continue
        targets = term.targets
        if targets[0] == targets[1]:
            # Degenerate branch: a single edge, counted by the target's
            # block probe.
            continue
        new_targets = []
        for target in targets:
            if len(preds[target]) > 1:
                label = "%s_to_%s" % (block.label, target)
                serial = 0
                while label in used_labels:
                    serial += 1
                    label = "%s_to_%s_%d" % (block.label, target, serial)
                used_labels.add(label)
                probe_id = table.new_probe(name, "edge", (block.label, target))
                tramp = BasicBlock(label)
                tramp.append(Instr(Opcode.PROBE, imm=probe_id))
                tramp.set_terminator(Instr(Opcode.JMP, targets=(target,)))
                trampolines.append(tramp)
                edge_sources.append(EdgeSource(block.label, target, probe_id))
                new_targets.append(label)
            else:
                pending_edges.append((block.label, target))
                new_targets.append(target)
        term.targets = tuple(new_targets)

    # Block probes at the top of every original block.
    block_probe: Dict[str, int] = {}
    for block in routine.blocks:
        probe_id = table.new_probe(name, "block", (block.label,))
        block.instrs.insert(0, Instr(Opcode.PROBE, imm=probe_id))
        block_probe[block.label] = probe_id
    table.block_probe[name] = block_probe

    routine.blocks.extend(trampolines)

    # Non-split conditional edges: counted by the target's block probe
    # (valid because the target has a unique predecessor).
    for from_label, to_label in pending_edges:
        edge_sources.append(
            EdgeSource(from_label, to_label, block_probe[to_label])
        )
    table.edges[name] = edge_sources
    routine.invalidate()


def instrument_program(program: Program) -> ProbeTable:
    """Instrument every routine in ``program`` (in place)."""
    table = ProbeTable()
    for module in program.module_list():
        for routine in module.routine_list():
            instrument_routine(routine, table)
    return table
