"""The dense dataflow the scalar phase used to run, kept as the spec.

``src/repro`` solves constant propagation over sparse states (only the
constant-valued registers) and liveness over bitmasks.  This module is
the code those replaced: a total ``{reg: int | BOT}`` dict per block
and ``set``-based liveness.  ``test_dataflow_spec.py`` asserts the two
agree block by block; nothing under ``src/`` imports this.
"""

from typing import Dict, List, Set, Tuple

from repro.hlo.analysis.cfg import reverse_postorder
from repro.ir.instructions import BINARY_OPS, Opcode, fold_binary, fold_unary

# Lattice: None = TOP (no info yet); BOT = conflicting; int = constant.
BOT = object()


def _meet(a, b):
    if a is None:
        return b
    if b is None:
        return a
    if a is BOT or b is BOT or a != b:
        return BOT
    return a


def _readonly_value(sym, ctx):
    if sym in ctx.readonly_globals and ctx.symtab.has_global(sym):
        var = ctx.symtab.lookup_global(sym)
        if not var.is_array:
            return var.init[0]
    return BOT


def _const_return_value(callee, ctx):
    value = ctx.const_returns.get(callee)
    return value if value is not None else BOT


def _transfer_block(routine, label, in_values, ctx):
    """Abstractly execute a block, returning the out-state."""
    values = dict(in_values)
    for instr in routine.block(label).instrs:
        dst = instr.dst
        op = instr.op
        if op is Opcode.CONST:
            values[dst] = instr.imm
        elif op is Opcode.MOV:
            values[dst] = values.get(instr.a, BOT)
        elif op in (Opcode.NEG, Opcode.NOT):
            a = values.get(instr.a, BOT)
            values[dst] = fold_unary(op, a) if isinstance(a, int) else BOT
        elif op in BINARY_OPS:
            a = values.get(instr.a, BOT)
            b = values.get(instr.b, BOT)
            if isinstance(a, int) and isinstance(b, int):
                values[dst] = fold_binary(op, a, b)
            else:
                values[dst] = BOT
        elif op is Opcode.LOADG:
            values[dst] = _readonly_value(instr.sym, ctx)
        elif op is Opcode.CALL:
            if dst is not None:
                values[dst] = _const_return_value(instr.sym, ctx)
        elif dst is not None:
            values[dst] = BOT
    return values


def compute_block_inputs(routine, ctx, max_sweeps=50):
    """Fixed-point dataflow: per-block entry lattice states (total)."""
    rpo = reverse_postorder(routine)
    preds = routine.predecessors()
    entry_label = routine.entry.label
    in_states = {label: {} for label in rpo}
    # Entry: parameters (and everything else) unknown.
    in_states[entry_label] = {reg: BOT for reg in range(routine.next_reg)}

    out_states = {}
    changed = True
    iterations = 0
    while changed and iterations < max_sweeps:
        changed = False
        iterations += 1
        for label in rpo:
            if label != entry_label:
                merged = {}
                first = True
                for pred in preds[label]:
                    pred_out = out_states.get(pred)
                    if pred_out is None:
                        continue
                    if first:
                        merged = dict(pred_out)
                        first = False
                    else:
                        for reg in list(merged):
                            merged[reg] = _meet(merged[reg], pred_out.get(reg))
                        for reg in pred_out:
                            if reg not in merged:
                                merged[reg] = pred_out[reg]
                if merged != in_states[label]:
                    in_states[label] = merged
                    changed = True
            new_out = _transfer_block(routine, label, in_states[label], ctx)
            if out_states.get(label) != new_out:
                out_states[label] = new_out
                changed = True
    if changed:
        # Iteration bound hit before the fixed point: fall back to
        # "no information" rather than risk an unsound rewrite.
        return {
            label: {reg: BOT for reg in range(routine.next_reg)}
            for label in rpo
        }
    return in_states


def constants_of(state) -> Dict[int, int]:
    """A dense state projected onto its constant-valued registers."""
    return {reg: value for reg, value in state.items() if value is not BOT}


def block_use_def(routine) -> Tuple[Dict[str, Set[int]], Dict[str, Set[int]]]:
    """Upward-exposed uses and definitions per block."""
    use: Dict[str, Set[int]] = {}
    defs: Dict[str, Set[int]] = {}
    for block in routine.blocks:
        block_use: Set[int] = set()
        block_def: Set[int] = set()
        for instr in block.instrs:
            for reg in instr.uses():
                if reg not in block_def:
                    block_use.add(reg)
            dst = instr.dst
            if dst is not None:
                block_def.add(dst)
        use[block.label] = block_use
        defs[block.label] = block_def
    return use, defs


def liveness(routine):
    """(live_in, live_out, use, defs) as ``{label: set of registers}``."""
    use, defs = block_use_def(routine)
    live_in = {b.label: set() for b in routine.blocks}
    live_out = {b.label: set() for b in routine.blocks}
    order = list(reversed(reverse_postorder(routine)))
    order.extend(
        block.label for block in routine.blocks if block.label not in set(order)
    )
    changed = True
    while changed:
        changed = False
        for label in order:
            block = routine.block(label)
            out: Set[int] = set()
            for succ in block.successors():
                out |= live_in[succ]
            new_in = use[label] | (out - defs[label])
            if out != live_out[label] or new_in != live_in[label]:
                live_out[label] = out
                live_in[label] = new_in
                changed = True
    return live_in, live_out, use, defs


def live_regs_after(routine, label) -> List[Set[int]]:
    """Registers live *after* each instruction of block ``label``
    (parallel to the block's instruction list)."""
    _, live_out, _, _ = liveness(routine)
    block = routine.block(label)
    live = set(live_out[label])
    after: List[Set[int]] = [set() for _ in block.instrs]
    for index in range(len(block.instrs) - 1, -1, -1):
        after[index] = set(live)
        instr = block.instrs[index]
        dst = instr.dst
        if dst is not None:
            live.discard(dst)
        for reg in instr.uses():
            live.add(reg)
    return after
