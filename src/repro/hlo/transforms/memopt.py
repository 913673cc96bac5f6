"""Memory disambiguation: global load/store forwarding within blocks.

Module boundaries normally hide "information about aliasing effects on
routine arguments and global variables" (paper §1); with the whole CMO
set visible, mod/ref analysis tells us exactly which calls can touch
which globals, so loads can be forwarded across calls that provably
leave the global alone.

Transformations (per basic block, one forward walk):

* store-to-load forwarding: ``storeg @g, r; ...; x = loadg @g`` becomes
  ``x = mov r`` when nothing in between may write ``g``;
* redundant load elimination: a second ``loadg @g`` reuses the first
  loaded value under the same condition;
* dead store elimination: a ``storeg @g`` overwritten by a later store
  to ``g`` in the same block, with no possible intervening read, is
  dropped.

Arrays are handled at whole-array granularity (any LOADE/STOREE of a
symbol counts as a read/write of the whole symbol).
"""

from __future__ import annotations

from typing import Dict, Set

from ...ir.instructions import Instr, Opcode
from ...ir.routine import Routine
from ..passes import (
    CFG,
    PROPAGATED,
    REWRITTEN,
    OptContext,
    RoutinePass,
)


#: The opcodes that read, write or may clobber global memory.
_MEMORY_OPS = frozenset({
    Opcode.LOADG, Opcode.STOREG, Opcode.LOADE, Opcode.STOREE, Opcode.CALL
})


class MemoryForwarding(RoutinePass):
    name = "memopt"

    #: One forward walk per block over the loads, stores and calls, the
    #: register each store writes from and every destination (a
    #: definition ends what its register was known to hold).  ``CFG``
    #: can merge two blocks into one walk; ``PROPAGATED`` renames the
    #: register a store writes from and folds loads of read-only
    #: globals away; ``REWRITTEN`` covers this pass's own forwarding (a
    #: forwarded load stops counting as a reader of the store before
    #: it) and deletions that were not clean.  ``REMOVED`` deletes
    #: neither a load, a store nor a call, and no definition that ended
    #: a "register holds global" fact: every walk sees what it saw.
    #: ``EMPTIED`` says nothing about the instructions that are left.
    enabled_by = CFG | PROPAGATED | REWRITTEN

    def run(self, routine: Routine, ctx: OptContext) -> int:
        modref = ctx.modref
        changed = False
        for block in routine.blocks:
            # sym -> register currently holding the global's value.
            known: Dict[str, int] = {}
            # sym -> index of a store with no observed reader yet.
            pending_store: Dict[str, int] = {}
            dead_indices: Set[int] = set()

            for index, instr in enumerate(block.instrs):
                original_op = instr.op
                original_sym = instr.sym

                # Forward a load from a register already holding the value.
                if original_op is Opcode.LOADG:
                    held = known.get(original_sym)
                    if held is not None:
                        instr = Instr(Opcode.MOV, dst=instr.dst, a=held)
                        block.instrs[index] = instr
                        changed = True

                # Any register definition invalidates facts about the old
                # value that register held.
                dst = instr.dst
                if dst is not None and known:
                    stale = [s for s, reg in known.items() if reg == dst]
                    for sym in stale:
                        del known[sym]

                if original_op not in _MEMORY_OPS:
                    continue
                if original_op is Opcode.STOREG:
                    previous = pending_store.get(original_sym)
                    if previous is not None:
                        dead_indices.add(previous)
                        changed = True
                    pending_store[original_sym] = index
                    known[original_sym] = instr.a
                elif original_op is Opcode.LOADG:
                    # Whether forwarded (MOV) or a real load, dst now holds
                    # the global's value; a real load also observes any
                    # pending store (keep it).
                    known[original_sym] = dst
                    pending_store.pop(original_sym, None)
                elif original_op in (Opcode.LOADE, Opcode.STOREE):
                    known.pop(original_sym, None)
                    pending_store.pop(original_sym, None)
                elif original_op is Opcode.CALL:
                    if modref is None:
                        known.clear()
                        pending_store.clear()
                    else:
                        info = modref.for_routine(instr.sym)
                        if info.unknown:
                            known.clear()
                            pending_store.clear()
                        else:
                            for sym in [s for s in known if s in info.mod]:
                                del known[sym]
                            for sym in [
                                s
                                for s in pending_store
                                if s in info.mod or s in info.ref
                            ]:
                                del pending_store[sym]

            if dead_indices:
                block.instrs = [
                    ins
                    for idx, ins in enumerate(block.instrs)
                    if idx not in dead_indices
                ]
        if changed:
            # Loads and stores only: the CFG-shaped results stand.
            routine.invalidate_instrs()
        # A forwarded load is a new move for constprop; a dropped store
        # no longer reads its register (dce) or pins it live into a
        # loop (licm).  A dropped store is followed by another in its
        # block, so no block is left empty.
        return REWRITTEN if changed else 0
