"""Cross-module, profile-guided inlining (paper §3, §5; Ayers et al.,
"Aggressive inlining", PLDI'97).

The engine works bottom-up over the call graph so callee bodies are in
their final, already-optimized form when spliced.  With profiles, hot
call sites -- ranked by dynamic call count -- get priority and larger
size allowances; without profiles every small callee is fair game,
which reproduces the paper's observation that pure CMO "thoroughly
optimizes all routines" and blows up compile time and memory.

NAIM cooperation: the engine decides over
:class:`~repro.incr.summary.RoutineFacts` and records each accepted
splice as a :class:`SpliceOp` on the WPA plan, so no body is resident
while it runs; per-caller work is ordered by callee module so
"cross-module inlines from the same pair of modules are processed one
after another" (§4.3), maximizing loader-cache reuse at replay, where
:func:`splice_call` mutates the real bodies.

Size arithmetic (exact, not estimated): splicing callee C into a call
site grows the caller by::

    n_params(C) + instrs(C) - probes(C) + (rets(C) if call has a dst)

because the splice adds one MOV per parameter plus a JMP (replacing
the CALL, net +n_params), copies the body minus PROBEs, and rewrites
each RET into a JMP plus -- only when the call assigns a result -- one
MOV/CONST.  ``probes`` and ``rets`` are invariant under C's own prior
inlining (spliced-in bodies arrive probe-free with RETs already
rewritten), so the recurrence stays exact as bodies grow.

An optional *operation limit* caps the number of inlines performed --
the paper's §6.3 bug-isolation hook, used by :mod:`repro.triage`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...incr.summary import RoutineFacts, SiteFacts
from ...ir.basic_block import BasicBlock
from ...ir.callgraph import CallGraph
from ...ir.instructions import Instr, Opcode
from ...ir.routine import Routine
from ..passes import OptContext
from ..profile_view import ProfileView

#: Fraction of total dynamic call weight the inliner tries to cover
#: when profiles are present (hot-site selection).
HOT_SITE_FRACTION = 0.7


class InlineStats:
    """Observable inliner activity."""

    def __init__(self) -> None:
        self.performed = 0
        self.rejected_size = 0
        self.rejected_growth = 0
        self.rejected_recursive = 0
        self.rejected_cold = 0
        self.hit_operation_limit = False
        #: Every inline performed, in order: (caller, callee).
        self.performed_list: List[Tuple[str, str]] = []
        #: (caller_module, callee_module) -> inline count.
        self.module_pairs: Dict[Tuple[str, str], int] = {}
        #: Loader-locality trace: callee modules in execution order.
        self.callee_module_trace: List[str] = []
        #: Summary consumption: caller module -> callee routines whose
        #: bodies it spliced in (the incremental engine's inline edges).
        self.consumed_bodies: Dict[str, set] = {}

    def record(self, caller_module: str, callee_module: str,
               caller: str = "", callee: str = "") -> None:
        self.performed += 1
        self.performed_list.append((caller, callee))
        key = (caller_module, callee_module)
        self.module_pairs[key] = self.module_pairs.get(key, 0) + 1
        self.callee_module_trace.append(callee_module)
        if callee:
            self.consumed_bodies.setdefault(caller_module, set()).add(callee)

    #: The counters a splice does not drive: what the planner turned down.
    _REJECTIONS = ("rejected_size", "rejected_growth", "rejected_recursive",
                   "rejected_cold")

    def take_verdicts(self, other: "InlineStats") -> None:
        """Adopt ``other``'s rejection counters and operation-limit flag
        (a link that applies a stored plan re-counts only its splices)."""
        for field in self._REJECTIONS:
            setattr(self, field, getattr(other, field))
        self.hit_operation_limit = other.hit_operation_limit

    def to_dict(self) -> dict:
        return {
            "performed": self.performed,
            "rejected_size": self.rejected_size,
            "rejected_growth": self.rejected_growth,
            "rejected_recursive": self.rejected_recursive,
            "rejected_cold": self.rejected_cold,
            "hit_operation_limit": self.hit_operation_limit,
            "performed_list": [list(pair) for pair in self.performed_list],
            "module_pairs": [
                [caller, callee, count]
                for (caller, callee), count in self.module_pairs.items()
            ],
            "callee_module_trace": list(self.callee_module_trace),
            "consumed_bodies": {
                module: sorted(bodies)
                for module, bodies in self.consumed_bodies.items()
            },
        }

    @staticmethod
    def from_dict(data: dict) -> "InlineStats":
        stats = InlineStats()
        stats.performed = int(data["performed"])
        for field in InlineStats._REJECTIONS:
            setattr(stats, field, int(data[field]))
        stats.hit_operation_limit = bool(data["hit_operation_limit"])
        stats.performed_list = [
            (caller, callee) for caller, callee in data["performed_list"]
        ]
        stats.module_pairs = {
            (caller, callee): int(count)
            for caller, callee, count in data["module_pairs"]
        }
        stats.callee_module_trace = list(data["callee_module_trace"])
        stats.consumed_bodies = {
            module: set(bodies)
            for module, bodies in data["consumed_bodies"].items()
        }
        return stats

    def cross_module_count(self) -> int:
        return sum(
            count for (cm, km), count in self.module_pairs.items() if cm != km
        )

    def __repr__(self) -> str:
        return "<InlineStats performed=%d cross_module=%d>" % (
            self.performed,
            self.cross_module_count(),
        )


def _inject_bug(caller: Routine, cont_label: str) -> None:
    """Deliberately miscompile the most recent inline (test/triage aid).

    Corrupts the freshly spliced callee body -- swapping the targets of
    its first conditional branch, or failing that perturbing its first
    constant / flipping an ADD -- simulating the class of inliner bugs
    the paper's §6.3 isolation workflow hunts.  Enabled only via
    ``HloOptions.inject_inline_bug_after``.
    """
    prefix = cont_label[: -len("cont")]
    body_blocks = [
        block
        for block in caller.blocks
        if block.label.startswith(prefix) and block.label != cont_label
    ]
    for block in body_blocks:
        term = block.terminator
        if term is not None and term.op is Opcode.BR:
            term.targets = (term.targets[1], term.targets[0])
            caller.invalidate()
            return
    for block in body_blocks:
        for instr in block.instrs:
            if instr.op is Opcode.CONST:
                instr.imm += 1
                caller.invalidate()
                return
            if instr.op is Opcode.ADD:
                instr.op = Opcode.SUB
                caller.invalidate()
                return


def splice_call(
    caller: Routine,
    block_label: str,
    instr_index: int,
    callee: Routine,
    caller_view: Optional[ProfileView] = None,
    callee_view: Optional[ProfileView] = None,
    site_weight: int = 0,
) -> str:
    """Inline one call site; returns the continuation block's label.

    The caller block is split at the call; the callee body is cloned
    with renamed registers/labels; parameter binding becomes MOVs;
    every RET becomes a jump to the continuation.  Probe instructions
    in the callee are dropped (profiles are collected on uninlined
    builds).
    """
    block = caller.block(block_label)
    call = block.instrs[instr_index]
    if call.op is not Opcode.CALL or call.sym != callee.name:
        raise ValueError(
            "no call to %s at %s:%s[%d]"
            % (callee.name, caller.name, block_label, instr_index)
        )

    serial = int(caller.annotations.get("inline_serial", 0))
    caller.annotations["inline_serial"] = serial + 1
    prefix = "il%d_" % serial

    reg_offset = caller.next_reg
    caller.next_reg += callee.next_reg

    label_map = {b.label: prefix + b.label for b in callee.blocks}
    cont_label = prefix + "cont"

    # Continuation block: the remainder of the split block.
    cont = BasicBlock(cont_label, block.instrs[instr_index + 1 :])

    # Rebuild the head of the split block: param binding + jump to body.
    head = block.instrs[:instr_index]
    for param_index in range(callee.n_params):
        head.append(
            Instr(
                Opcode.MOV,
                dst=reg_offset + param_index,
                a=call.args[param_index],
            )
        )
    entry_label = label_map[callee.entry.label]
    head.append(Instr(Opcode.JMP, targets=(entry_label,)))
    block.instrs = head

    # Clone the callee body.
    cloned: List[BasicBlock] = []
    for callee_block in callee.blocks:
        new_block = BasicBlock(label_map[callee_block.label])
        for instr in callee_block.instrs:
            if instr.op is Opcode.PROBE:
                continue
            copy = instr.copy()
            if copy.dst is not None:
                copy.dst += reg_offset
            if copy.a is not None:
                copy.a += reg_offset
            if copy.b is not None:
                copy.b += reg_offset
            if copy.args:
                copy.args = tuple(r + reg_offset for r in copy.args)
            if copy.op is Opcode.RET:
                if call.dst is not None:
                    if copy.a is not None:
                        new_block.instrs.append(
                            Instr(Opcode.MOV, dst=call.dst, a=copy.a)
                        )
                    else:
                        new_block.instrs.append(
                            Instr(Opcode.CONST, dst=call.dst, imm=0)
                        )
                new_block.instrs.append(Instr(Opcode.JMP, targets=(cont_label,)))
                continue
            if copy.targets:
                copy.targets = tuple(label_map[t] for t in copy.targets)
            new_block.instrs.append(copy)
        cloned.append(new_block)

    # Insert the cloned body and continuation right after the split block.
    position = next(
        i for i, b in enumerate(caller.blocks) if b.label == block_label
    )
    caller.blocks[position + 1 : position + 1] = cloned + [cont]
    caller.invalidate()

    # Profile bookkeeping.
    if caller_view is not None:
        site_count = site_weight or caller_view.count(block_label)
        if callee_view is not None:
            callee_entry = callee_view.count(callee.entry.label)
            caller_view.splice_scaled(
                callee_view, label_map, site_count, callee_entry
            )
        else:
            for new_label in label_map.values():
                caller_view.set_count(new_label, site_count)
        caller_view.set_count(cont_label, caller_view.count(block_label))
        caller_view.set_edge(block_label, entry_label, site_count)

    history = caller.annotations.get("inlined_from", "")
    caller.annotations["inlined_from"] = (
        "%s,%s" % (history, callee.name) if history else callee.name
    )
    return cont_label


class InlineCandidate:
    """One call site the planner may inline."""

    __slots__ = ("caller", "callee", "weight", "hot")

    def __init__(self, caller: str, callee: str, weight: int, hot: bool) -> None:
        self.caller = caller
        self.callee = callee
        self.weight = weight
        self.hot = hot

    def __repr__(self) -> str:
        return "<InlineCandidate %s->%s w=%d%s>" % (
            self.caller,
            self.callee,
            self.weight,
            " hot" if self.hot else "",
        )


class SpliceOp:
    """One accepted inline; position in ``plan.splices`` is its global
    ordinal."""

    __slots__ = ("caller", "callee", "weight")

    def __init__(self, caller: str, callee: str, weight: int) -> None:
        self.caller = caller
        self.callee = callee
        self.weight = weight


def splice_facts(
    caller: RoutineFacts,
    callee: RoutineFacts,
    site: SiteFacts,
    weight: int,
    plan,
    stats: InlineStats,
) -> None:
    """Accept one splice: the caller's facts consume ``site`` and grow
    by the exact size recurrence, the splice takes the next global
    ordinal on ``plan`` and ``stats`` counts it."""
    delta = callee.n_params + callee.instr_count - callee.probe_count
    if site.has_dst:
        delta += callee.ret_count
    caller.sites.remove(site)
    caller.instr_count += delta
    plan.splices.append(SpliceOp(caller.name, callee.name, weight))
    stats.record(caller.module, callee.module,
                 caller=caller.name, callee=callee.name)


def apply_splices(
    facts_by_name: Dict[str, RoutineFacts],
    splices: List[SpliceOp],
    plan,
    stats: InlineStats,
) -> None:
    """Accept splices an earlier link decided, in their ordinal order,
    each at the first remaining site (as :meth:`InlineEngine.run`
    found it)."""
    for op in splices:
        caller = facts_by_name[op.caller]
        site = InlineEngine._first_site(caller, op.callee)
        if site is None:
            raise ValueError(
                "no site of %s left in %s" % (op.callee, op.caller)
            )
        splice_facts(caller, facts_by_name[op.callee], site, op.weight,
                     plan, stats)


class InlineEngine:
    """Plans inlining over a set of routines' facts."""

    def __init__(
        self,
        ctx: OptContext,
        callgraph: CallGraph,
        facts_by_name: Dict[str, RoutineFacts],
        has_profiles: bool,
        plan,
    ) -> None:
        self.ctx = ctx
        self.callgraph = callgraph
        self.resolve = facts_by_name.get
        self.has_profiles = has_profiles
        #: The WPA plan accepted splices are appended to.
        self.plan = plan
        self.stats = InlineStats()
        self._sizes: Dict[str, int] = {}
        self._original_program_size = 0
        self._program_size = 0

    # -- Sizing helpers ---------------------------------------------------------

    def _size_of(self, name: str) -> int:
        size = self._sizes.get(name)
        if size is None:
            facts = self.resolve(name)
            size = facts.instr_count if facts is not None else 1 << 30
            self._sizes[name] = size
        return size

    def _set_size(self, name: str, size: int) -> None:
        self._program_size += size - self._sizes.get(name, size)
        self._sizes[name] = size

    # -- Planning --------------------------------------------------------------

    def _hot_weight_cutoff(self) -> int:
        """Smallest weight still inside the hot fraction of call volume."""
        if not self.has_profiles:
            return 0
        weights = sorted(
            (site.weight for site in self.callgraph.all_sites()), reverse=True
        )
        total = sum(weights)
        if total == 0:
            return 1
        budget = total * HOT_SITE_FRACTION
        running = 0
        cutoff = weights[0] if weights else 1
        for weight in weights:
            running += weight
            cutoff = weight
            if running >= budget:
                break
        return max(cutoff, 1)

    def plan_for_caller(
        self, caller_name: str, hot_cutoff: int
    ) -> List[InlineCandidate]:
        """Decide which of a caller's sites to inline, in splice order."""
        options = self.ctx.options
        node = self.callgraph.nodes.get(caller_name)
        if node is None:
            return []
        candidates: List[InlineCandidate] = []
        for site in node.call_sites:
            callee = site.callee
            if callee == caller_name:
                self.stats.rejected_recursive += 1
                continue
            if callee not in self.callgraph.nodes:
                continue  # external / unavailable
            if self.callgraph.is_recursive(callee):
                self.stats.rejected_recursive += 1
                continue
            weight = site.weight
            hot = self.has_profiles and weight >= hot_cutoff
            if self.has_profiles and weight < options.inline_min_site_weight:
                self.stats.rejected_cold += 1
                continue
            callee_size = self._size_of(callee)
            limit = (
                options.inline_hot_callee_max_instrs
                if hot
                else options.inline_callee_max_instrs
            )
            if callee_size > limit:
                self.stats.rejected_size += 1
                continue
            candidates.append(InlineCandidate(caller_name, callee, weight, hot))
        # Loader locality: group by callee module, heavier modules first;
        # deterministic tiebreaks throughout (paper §6.2).
        if options.inline_schedule_by_module_pair:
            module_weight: Dict[str, int] = {}
            for cand in candidates:
                module = self.callgraph.nodes[cand.callee].module_name
                module_weight[module] = module_weight.get(module, 0) + max(
                    cand.weight, 1
                )
            candidates.sort(
                key=lambda c: (
                    -module_weight[self.callgraph.nodes[c.callee].module_name],
                    self.callgraph.nodes[c.callee].module_name,
                    -c.weight,
                    c.callee,
                )
            )
        else:
            # Pure benefit order: stable sort keeps equal-weight sites in
            # discovery (program) order -- the no-locality baseline.
            candidates.sort(key=lambda c: -c.weight)
        return candidates

    # -- Execution ----------------------------------------------------------------

    def run(self, caller_names: Optional[List[str]] = None) -> InlineStats:
        """Inline over the whole call graph (or the given callers)."""
        options = self.ctx.options
        order = self.callgraph.topo_order_bottom_up()
        if caller_names is not None:
            selected = set(caller_names)
            order = [name for name in order if name in selected]

        self._original_program_size = sum(
            self._size_of(name) for name in self.callgraph.nodes
        )
        self._program_size = self._original_program_size
        program_budget = int(
            self._original_program_size * options.inline_program_growth_factor
        )
        hot_cutoff = self._hot_weight_cutoff()

        for caller_name in order:
            plan = self.plan_for_caller(caller_name, hot_cutoff)
            if not plan:
                continue
            caller = self.resolve(caller_name)
            if caller is None:
                continue
            self._execute_plan(caller, plan, program_budget)
            if self.stats.hit_operation_limit:
                break
        return self.stats

    def _execute_plan(
        self,
        caller: RoutineFacts,
        plan: List[InlineCandidate],
        program_budget: int,
    ) -> None:
        """Accept candidates in plan order (module-pair grouped).

        Each accepted candidate consumes one summary site, advances the
        exact size recurrence and is appended to the WPA plan;
        ``inject_inline_bug_after`` needs no recording, replay derives
        the injection point from the same global splice ordinal.
        """
        options = self.ctx.options
        caller_limit = max(
            options.inline_caller_max_instrs,
            int(self._size_of(caller.name) * options.inline_routine_growth_factor),
        )
        for cand in plan:
            if (
                options.inline_operation_limit is not None
                and self.stats.performed >= options.inline_operation_limit
            ):
                self.stats.hit_operation_limit = True
                return
            callee = self.resolve(cand.callee)
            if callee is None:
                continue
            callee_size = callee.instr_count
            if (
                caller.instr_count + callee_size > caller_limit
                or self._program_size + callee_size > program_budget
            ):
                self.stats.rejected_growth += 1
                continue
            site = self._first_site(caller, cand.callee)
            if site is None:
                continue  # an earlier splice consumed the call
            if len(site.args) != callee.n_params:
                # Mismatched interface (paper section 6.3): leave the call
                # for the runtime checker rather than splice garbage.
                continue
            splice_facts(caller, callee, site, cand.weight, self.plan,
                         self.stats)
            self._set_size(caller.name, caller.instr_count)
        self._set_size(caller.name, caller.instr_count)

    @staticmethod
    def _first_site(
        caller: RoutineFacts, callee_name: str
    ) -> Optional[SiteFacts]:
        """First remaining summary site calling ``callee_name``.

        The facts site list *is* the flat scannable order of
        :meth:`_find_site`: a real splice keeps earlier sites in place
        (head of the split block), preserves later ones (continuation),
        and contributes no scannable sites from the cloned body -- so
        dropping the consumed entry keeps both orders in lockstep.
        """
        for site in caller.sites:
            if site.callee == callee_name:
                return site
        return None

    @staticmethod
    def _find_site(
        caller: Routine, callee_name: str, scannable
    ) -> Optional[Tuple[str, int]]:
        """First remaining call to ``callee_name`` outside cloned bodies."""
        for block in caller.blocks:
            if block.label not in scannable:
                continue
            for index, instr in enumerate(block.instrs):
                if instr.op is Opcode.CALL and instr.sym == callee_name:
                    return (block.label, index)
        return None
