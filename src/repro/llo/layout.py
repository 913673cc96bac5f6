"""Profile-guided basic-block layout and final code emission.

Blocks are ordered so hot edges fall through (no taken-branch penalty,
better I-cache line packing).  The chain-building algorithm is the
intra-procedural half of Pettis-Hansen code positioning [13]; the
linker does the procedure-level half (:mod:`repro.linker.clustering`).

After ordering, abstract terminators are materialized:

* ``br``: ``BF`` over the true edge if the true target falls through;
  ``BT`` if the false target falls through; ``BT`` + ``J`` otherwise;
* ``jmp``: nothing when the target falls through, ``J`` otherwise;
* ``ret``: ``RET`` (R0 plumbing already inserted by the allocator).

Emission resolves labels to routine-local instruction offsets and
drops trivial ``MOVR rX, rX`` moves (peephole).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..hlo.profile_view import ProfileView
from ..vm.image import MachineRoutine
from ..vm.isa import MInstr, MOp
from .lir import LirRoutine


def order_blocks(
    lir: LirRoutine,
    view: Optional[ProfileView] = None,
    use_profile: bool = True,
) -> List[str]:
    """Choose the block emission order."""
    labels = [block.label for block in lir.blocks]
    if not use_profile or view is None or len(labels) <= 2:
        return labels
    entry = labels[0]

    # Collect weighted CFG edges.
    edge = view.edge
    edges: List[Tuple[int, str, str]] = []
    for block in lir.blocks:
        term = block.terminator
        if term is None:
            continue
        label = block.label
        for succ in term.successors():
            edges.append((edge(label, succ), label, succ))
    # Heaviest first; deterministic tiebreak.
    edges.sort(key=lambda e: (-e[0], e[1], e[2]))

    # Pettis-Hansen chain building.
    chain_of: Dict[str, int] = {label: i for i, label in enumerate(labels)}
    chains: Dict[int, List[str]] = {i: [label] for i, label in
                                    enumerate(labels)}
    for _, src, dst in edges:
        src_chain = chain_of[src]
        dst_chain = chain_of.get(dst)
        if dst_chain is None or src_chain == dst_chain:
            continue
        if chains[src_chain][-1] != src or chains[dst_chain][0] != dst:
            continue  # only merge tail -> head
        for label in chains[dst_chain]:
            chain_of[label] = src_chain
        chains[src_chain].extend(chains[dst_chain])
        del chains[dst_chain]

    # Order chains: the entry's chain first, then by descending heat.
    def chain_heat(chain: List[str]) -> int:
        return max(view.count(label) for label in chain)

    entry_chain = chain_of[entry]
    rest = [cid for cid in chains if cid != entry_chain]
    rest.sort(key=lambda cid: (-chain_heat(chains[cid]), chains[cid][0]))
    ordered: List[str] = list(chains[entry_chain])
    for cid in rest:
        ordered.extend(chains[cid])
    return ordered


def emit_routine(
    lir: LirRoutine,
    frame_size: int,
    order: Optional[List[str]] = None,
) -> MachineRoutine:
    """Linearize LIR into a :class:`MachineRoutine` (pre-link form)."""
    if order is None:
        order = [block.label for block in lir.blocks]
    blocks = lir.block_map()
    # The entry block must come first; rotate if layout moved it.
    entry = lir.blocks[0].label
    if order[0] != entry:
        order = [entry] + [label for label in order if label != entry]

    instrs: List[MInstr] = []
    offsets: Dict[str, int] = {}
    pending: List[Tuple[int, str]] = []  # (instr index, target label)

    movr = MOp.MOVR
    for position, label in enumerate(order):
        block = blocks[label]
        offsets[label] = len(instrs)
        # Peephole: drop trivial moves.
        instrs += [
            instr for instr in block.instrs
            if instr.op is not movr or instr.rd != instr.rs1
        ]
        term = block.terminator
        next_label = order[position + 1] if position + 1 < len(order) else None
        if term is None:
            continue
        if term.kind == "ret":
            instrs.append(MInstr(MOp.RET))
        elif term.kind == "jmp":
            if term.true_label != next_label:
                jump = MInstr(MOp.J, target=term.true_label)
                pending.append((len(instrs), term.true_label))
                instrs.append(jump)
        elif term.kind == "br":
            if term.false_label == next_label:
                branch = MInstr(MOp.BT, rs1=term.reg, target=term.true_label)
                pending.append((len(instrs), term.true_label))
                instrs.append(branch)
            elif term.true_label == next_label:
                branch = MInstr(MOp.BF, rs1=term.reg, target=term.false_label)
                pending.append((len(instrs), term.false_label))
                instrs.append(branch)
            else:
                branch = MInstr(MOp.BT, rs1=term.reg, target=term.true_label)
                pending.append((len(instrs), term.true_label))
                instrs.append(branch)
                jump = MInstr(MOp.J, target=term.false_label)
                pending.append((len(instrs), term.false_label))
                instrs.append(jump)

    for index, label in pending:
        instrs[index].imm = offsets[label]
        instrs[index].target = None

    return MachineRoutine(
        lir.name,
        instrs,
        n_params=lir.n_params,
        frame_size=frame_size,
        source_module=lir.module_name,
    )
