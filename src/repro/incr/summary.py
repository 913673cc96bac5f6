"""Module summaries and reuse fingerprints for incremental CMO.

Two layers of fingerprinting drive the incremental engine:

* **Source-level summaries** (:class:`ModuleSummary`) are emitted per
  module before HLO runs: exported routine signatures, body hashes of
  every (potentially inlinable) routine, and global-variable shapes.
  Comparing them against the previous build's summaries yields the
  *changed* module set the link report names.

* **Reuse keys** (:func:`compute_routine_keys`) are exact per-routine
  fingerprints taken *after* the whole-program phases (DFE, IPCP,
  cloning, inlining) but before the scalar pipeline and code
  generation.  The key covers everything those two expensive phases
  can observe about a routine -- what determines its post-replay body,
  its profile view, its selectivity membership, and the
  interprocedural fact slice it reads (callee mod/ref + constant
  returns, readonly globals and their initializers).  Equal key
  therefore implies byte-identical machine code, so the cached machine
  routine can be spliced in unchanged.  This is the WHOPR-style split: the cheap
  "thin link" analysis re-runs every build; only per-module
  optimization and codegen are skipped.

The second half of the module is what that whole-program analysis
decides from: :class:`RoutineFacts`, with :func:`extract_routine_facts`
the only body -> facts view.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..ir.instructions import Opcode
from ..ir.module import Module
from ..ir.routine import Routine
from ..ir.symbols import ProgramSymbolTable
from ..naim.compaction import compact_routine
from ..sched.artifacts import PIPELINE_EPOCH

#: Bump when the summary/key wire format itself changes.
SUMMARY_FORMAT = 3


def _hexdigest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def routine_body_hash(routine: Routine) -> str:
    """Content hash of one routine body.

    Encodes through :func:`compact_routine` with a private symbol
    table, so the hash depends only on the routine's own content and
    identity (name, module, intra-module ordinal) -- editing a sibling
    routine's body never disturbs it, and program-wide PID numbering
    never leaks in.
    """
    return _hexdigest(compact_routine(routine, ProgramSymbolTable()))


def view_fingerprint(view) -> str:
    """Hash of a profile view's counts (measured or static)."""
    if view is None:
        return "-"
    digest = hashlib.sha256()
    digest.update(b"static" if view.is_static_estimate else b"measured")
    for label in sorted(view.block_counts):
        digest.update(
            ("%s=%d;" % (label, view.block_counts[label])).encode("utf-8")
        )
    for edge in sorted(view.edge_counts):
        digest.update(
            ("%s>%s=%d;" % (edge[0], edge[1], view.edge_counts[edge]))
            .encode("utf-8")
        )
    return digest.hexdigest()[:16]


def modref_fingerprint(info) -> str:
    """Canonical string of one routine's mod/ref facts."""
    if info.unknown:
        return "unknown"
    return "mod=%s|ref=%s" % (
        ",".join(sorted(info.mod)), ",".join(sorted(info.ref))
    )


def options_fingerprint(options) -> str:
    """Fingerprint of every option that can steer CMO or codegen.

    ``options`` is a :class:`~repro.driver.options.CompilerOptions`;
    the HLO knob set is hashed field-by-field so any new knob
    automatically participates.
    """
    digest = hashlib.sha256()
    digest.update(PIPELINE_EPOCH.encode("utf-8"))
    digest.update(b"\x00")
    # The selectivity percentage is deliberately left out: a threshold
    # move changes which routines are *selected*, and that membership is
    # already captured per module by the ``optimized`` flag and profile
    # views in the reuse keys.  Hashing the raw percent would force a
    # full first_build whenever a state dir is relinked at another
    # ``--selectivity``, though only the modules that crossed it moved.
    described = " ".join(
        part for part in options.describe().split()
        if not part.startswith("sel=")
    )
    digest.update(described.encode("utf-8"))
    digest.update(b"\x00")
    for name in sorted(vars(options.hlo)):
        digest.update(
            ("%s=%r;" % (name, getattr(options.hlo, name))).encode("utf-8")
        )
    digest.update(b"\x00")
    digest.update(("multi_layer=%r" % options.multi_layer).encode("utf-8"))
    return digest.hexdigest()[:16]


class ModuleSummary:
    """What other modules can observe about one module, fingerprinted."""

    def __init__(self, module_name: str) -> None:
        self.module_name = module_name
        #: routine name -> (n_params, exported flag).
        self.signatures: Dict[str, Tuple[int, bool]] = {}
        #: routine name -> body content hash (inlining candidates).
        self.body_hashes: Dict[str, str] = {}
        #: global name -> (size, exported flag, init hash).
        self.globals: Dict[str, Tuple[int, bool, str]] = {}

    @staticmethod
    def from_module(module: Module) -> "ModuleSummary":
        summary = ModuleSummary(module.name)
        for routine in module.routine_list():
            summary.signatures[routine.name] = (
                routine.n_params, bool(routine.exported)
            )
            summary.body_hashes[routine.name] = routine_body_hash(routine)
        for var in module.symtab.globals.values():
            summary.globals[var.name] = (
                var.size, bool(var.exported), _hexdigest(repr(var.init).encode())
            )
        return summary

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        digest.update(self.module_name.encode("utf-8"))
        for name in sorted(self.signatures):
            n_params, exported = self.signatures[name]
            digest.update(
                ("r:%s/%d/%d=%s;" % (name, n_params, int(exported),
                                     self.body_hashes.get(name, "-")))
                .encode("utf-8")
            )
        for name in sorted(self.globals):
            size, exported, init_hash = self.globals[name]
            digest.update(
                ("g:%s/%d/%d=%s;" % (name, size, int(exported), init_hash))
                .encode("utf-8")
            )
        return digest.hexdigest()[:16]

    # -- Serialization (JSON-friendly) --------------------------------------------

    def to_dict(self) -> dict:
        return {
            "module": self.module_name,
            "signatures": {
                name: [n, int(e)] for name, (n, e) in self.signatures.items()
            },
            "body_hashes": dict(self.body_hashes),
            "globals": {
                name: [size, int(e), h]
                for name, (size, e, h) in self.globals.items()
            },
        }

    @staticmethod
    def from_dict(data: dict) -> "ModuleSummary":
        summary = ModuleSummary(data["module"])
        summary.signatures = {
            name: (int(n), bool(e))
            for name, (n, e) in data.get("signatures", {}).items()
        }
        summary.body_hashes = dict(data.get("body_hashes", {}))
        summary.globals = {
            name: (int(size), bool(e), h)
            for name, (size, e, h) in data.get("globals", {}).items()
        }
        return summary

    def __repr__(self) -> str:
        return "<ModuleSummary %s (%d routines, %d globals) %s>" % (
            self.module_name, len(self.signatures), len(self.globals),
            self.fingerprint(),
        )


def compute_routine_keys(
    unit,
    ctx,
    facts_by_name: Dict[str, RoutineFacts],
    orig_hashes: Dict[str, str],
    plan,
    selected: Set[str],
    clones: Set[str],
    options_fp: str,
    routines: Optional[Iterable[str]] = None,
) -> Dict[str, str]:
    """Exact per-routine reuse keys over the post-WPA program state.

    ``unit`` is the HLO :class:`~repro.hlo.driver.CmoUnit`, ``ctx`` the
    :class:`~repro.hlo.passes.OptContext` carrying the published
    interprocedural facts, ``plan`` the recorded
    :class:`~repro.hlo.thin.WpaPlan`.  Returns the reuse key of every
    routine of the unit (or of ``routines``, when given), in that order.

    Each routine gets an *evolution hash* E(r) covering everything that
    determines its post-replay body and profile view: the original body
    hash (or, for clones, the origin's evolution plus the creation
    point and bindings), IPCP bindings, retargets, ordered splices with
    the callee's own E, and the initial view.  Consumed callee/global
    sets are computed by residual closure over the plan (spliced bodies
    contribute their own residual calls and globals).

    Soundness: the scalar pipeline and LLO consume, per routine, the
    routine body, its profile view, ``ctx.modref`` / ``ctx.const_returns``
    facts about its callees, and ``ctx.readonly_globals`` plus global
    initializers for its referenced globals.  All of those are hashed
    into the routine's key, so key equality implies the downstream
    phases would produce identical machine code for it.
    """
    bindings_of = {name: binds for name, binds in plan.bindings}
    splices_of: Dict[str, list] = {}
    for op in plan.splices:
        splices_of.setdefault(op.caller, []).append(op)
    clone_ops = {op.clone: op for op in plan.clones}
    # Retargets on each caller, in plan order, with the global clone
    # sequence number (a clone's facts inherit only retargets recorded
    # before its creation).
    retargets_of: Dict[str, List[Tuple[int, str, int, str]]] = {}
    clone_seq: Dict[str, int] = {}
    for seq, op in enumerate(plan.clones):
        clone_seq[op.clone] = seq
        for caller, label, index in op.retargets:
            retargets_of.setdefault(caller, []).append(
                (seq, label, index, op.clone)
            )

    evo_memo: Dict[str, str] = {}

    def evolution(name: str) -> str:
        cached = evo_memo.get(name)
        if cached is not None:
            return cached
        digest = hashlib.sha256()
        clone_op = clone_ops.get(name)
        if clone_op is not None:
            digest.update(
                ("cl|%s|%s|%d|%r|" % (
                    clone_op.origin, evolution(clone_op.origin),
                    clone_seq[name], clone_op.bindings,
                )).encode("utf-8")
            )
        else:
            digest.update(
                ("o|%s|" % orig_hashes.get(name, "-")).encode("utf-8")
            )
        digest.update(
            ("b:%r;" % bindings_of.get(name, [])).encode("utf-8")
        )
        for seq, label, index, new_callee in retargets_of.get(name, ()):
            digest.update(
                ("t:%d/%s/%d=%s;" % (seq, label, index, new_callee))
                .encode("utf-8")
            )
        for op in splices_of.get(name, ()):
            digest.update(
                ("i:%s/%s/%d;" % (op.callee, evolution(op.callee),
                                  op.weight)).encode("utf-8")
            )
        facts = facts_by_name.get(name)
        digest.update(
            view_fingerprint(facts.view if facts is not None else None)
            .encode("utf-8")
        )
        value = digest.hexdigest()[:16]
        evo_memo[name] = value
        return value

    residual_memo: Dict[str, Tuple[Set[str], Set[str]]] = {}

    def residual(name: str) -> Tuple[Set[str], Set[str]]:
        cached = residual_memo.get(name)
        if cached is not None:
            return cached
        facts = facts_by_name[name]
        callees = {site.callee for site in facts.sites}
        globals_ = set(facts.referenced_globals)
        residual_memo[name] = (callees, globals_)  # cycle guard
        for op in splices_of.get(name, ()):
            sub_callees, sub_globals = residual(op.callee)
            callees |= sub_callees
            globals_ |= sub_globals
        residual_memo[name] = (callees, globals_)
        return residual_memo[name]

    in_unit = unit.routine_module
    prefix = ("thin|v%d|%s" % (SUMMARY_FORMAT, options_fp)).encode("utf-8")
    keys: Dict[str, str] = {}
    for name in in_unit if routines is None else routines:
        optimized = name in selected or name in clones
        digest = hashlib.sha256(prefix)
        digest.update(
            ("|%s|r:%s/%d=%s;" % (in_unit[name], name, int(optimized),
                                  evolution(name))).encode("utf-8")
        )
        # The foreign facts this routine's post-inline body can observe.
        callees, globals_ = residual(name)
        for callee in sorted(callees):
            modref = (
                modref_fingerprint(ctx.modref.for_routine(callee))
                if ctx.modref is not None else "-"
            )
            digest.update(
                ("c:%s/%s/%r/%d;" % (
                    callee, modref, ctx.const_returns.get(callee),
                    int(callee in in_unit),
                )).encode("utf-8")
            )
        for global_name in sorted(globals_):
            readonly = global_name in ctx.readonly_globals
            if ctx.symtab.has_global(global_name):
                var = ctx.symtab.lookup_global(global_name)
                shape = "%d/%r" % (var.size, var.init)
            else:
                shape = "extern"
            digest.update(
                ("g:%s/%d/%s;" % (global_name, int(readonly), shape))
                .encode("utf-8")
            )
        keys[name] = digest.hexdigest()[:32]
    return keys


# -- Per-routine facts (what WPA decides from) ------------------------------
#
# The whole-program phase runs every cross-module decision -- IPCP
# seeds, cloning, the inline plan, DFE -- against these facts instead
# of expanded routine bodies.  The facts therefore record exactly what
# those passes can observe: sizes, call edges with per-argument
# constness, return constness, direct mod/ref, and the initial profile
# view.  Argument/return constness is block-local: the *latest*
# same-block definition of the register before the site, constant only
# when it is a CONST.


class SiteFacts:
    """One call site's summary: position, callee, argument constness."""

    __slots__ = ("block_label", "index", "callee", "in_entry", "has_dst",
                 "args")

    def __init__(self, block_label: str, index: int, callee: str,
                 in_entry: bool, has_dst: bool,
                 args: List[Tuple[int, Optional[int], bool]]) -> None:
        self.block_label = block_label
        self.index = index
        self.callee = callee
        #: Site lives in the routine's entry block (IPCP entry bindings
        #: shift its index and can change its argument constness).
        self.in_entry = in_entry
        #: The call assigns a result register (inlining materializes the
        #: callee's returns only in that case).
        self.has_dst = has_dst
        #: Per argument: (register, const value or None, has same-block
        #: def before the site).
        self.args = args

    def to_list(self) -> list:
        return [self.block_label, self.index, self.callee,
                int(self.in_entry), int(self.has_dst),
                [[reg, value, int(has_def)] for reg, value, has_def
                 in self.args]]

    @staticmethod
    def from_list(data: list) -> "SiteFacts":
        return SiteFacts(
            data[0], int(data[1]), data[2], bool(data[3]), bool(data[4]),
            [(int(reg), value if value is None else int(value),
              bool(has_def)) for reg, value, has_def in data[5]],
        )


class RetFacts:
    """One block-terminator RET's summary (constant-return analysis)."""

    __slots__ = ("block_label", "in_entry", "reg", "value", "has_def")

    def __init__(self, block_label: str, in_entry: bool,
                 reg: Optional[int], value: Optional[int],
                 has_def: bool) -> None:
        self.block_label = block_label
        self.in_entry = in_entry
        #: Returned register (None: bare RET, the literal 0).
        self.reg = reg
        self.value = value
        self.has_def = has_def

    def to_list(self) -> list:
        return [self.block_label, int(self.in_entry), self.reg, self.value,
                int(self.has_def)]

    @staticmethod
    def from_list(data: list) -> "RetFacts":
        return RetFacts(
            data[0], bool(data[1]),
            data[2] if data[2] is None else int(data[2]),
            data[3] if data[3] is None else int(data[3]),
            bool(data[4]),
        )


class RoutineFacts:
    """Everything the whole-program phases need to know about a routine
    without holding its body."""

    # ``__weakref__``: a link's facts must die with its WPA, and weak
    # references are how that lifetime is checked.
    __slots__ = ("name", "module", "n_params", "exported", "instr_count",
                 "probe_count", "ret_count", "sites", "rets",
                 "referenced_globals", "mod", "ref", "view",
                 "__weakref__")

    def __init__(self, name: str, module: str, n_params: int,
                 exported: bool) -> None:
        self.name = name
        self.module = module
        self.n_params = n_params
        #: Escape bit: an exported routine's address is visible outside
        #: its module (the IL has no indirect calls, so this plus the
        #: driver's ``externally_callable`` set covers address-taken).
        self.exported = exported
        self.instr_count = 0
        #: PROBE / RET instruction counts.  Both are invariant under the
        #: callee's own prior inlining (spliced-in bodies drop probes and
        #: rewrite RETs to jumps), which is what makes the inline size
        #: formula exact.
        self.probe_count = 0
        self.ret_count = 0
        self.sites: List[SiteFacts] = []
        self.rets: List[RetFacts] = []
        self.referenced_globals: List[str] = []
        #: Direct mod/ref (globals written / read by own instructions).
        self.mod: Set[str] = set()
        self.ref: Set[str] = set()
        #: Initial profile view (measured or static estimate); the WPA
        #: phases read it, they never evolve it -- view evolution happens
        #: at plan replay.
        self.view = None

    def callees(self) -> List[str]:
        """Distinct callees, first-occurrence order (mirrors Routine)."""
        seen: Dict[str, None] = {}
        for site in self.sites:
            seen.setdefault(site.callee)
        return list(seen)

    def copy(self, new_name: Optional[str] = None) -> "RoutineFacts":
        """Deep copy, the profile view included (cloning simulation,
        and the private facts a link gets of resident ones)."""
        dup = RoutineFacts(new_name or self.name, self.module,
                           self.n_params, self.exported)
        dup.instr_count = self.instr_count
        dup.probe_count = self.probe_count
        dup.ret_count = self.ret_count
        dup.sites = [
            SiteFacts(s.block_label, s.index, s.callee, s.in_entry,
                      s.has_dst, list(s.args))
            for s in self.sites
        ]
        dup.rets = [
            RetFacts(r.block_label, r.in_entry, r.reg, r.value, r.has_def)
            for r in self.rets
        ]
        dup.referenced_globals = list(self.referenced_globals)
        dup.mod = set(self.mod)
        dup.ref = set(self.ref)
        dup.view = None if self.view is None else self.view.copy()
        return dup

    # -- Serialization (facts cache blobs) ------------------------------------

    def to_dict(self) -> dict:
        view = self.view
        return {
            "name": self.name,
            "module": self.module,
            "n_params": self.n_params,
            "exported": int(self.exported),
            "instrs": self.instr_count,
            "probes": self.probe_count,
            "rets_n": self.ret_count,
            "sites": [site.to_list() for site in self.sites],
            "rets": [ret.to_list() for ret in self.rets],
            "globals": list(self.referenced_globals),
            "mod": sorted(self.mod),
            "ref": sorted(self.ref),
            "view": None if view is None else {
                "static": int(view.is_static_estimate),
                "blocks": dict(view.block_counts),
                "edges": [[f, t, c] for (f, t), c in
                          sorted(view.edge_counts.items())],
            },
        }

    @staticmethod
    def from_dict(data: dict) -> "RoutineFacts":
        facts = RoutineFacts(data["name"], data["module"],
                             int(data["n_params"]), bool(data["exported"]))
        facts.instr_count = int(data["instrs"])
        facts.probe_count = int(data["probes"])
        facts.ret_count = int(data["rets_n"])
        facts.sites = [SiteFacts.from_list(item) for item in data["sites"]]
        facts.rets = [RetFacts.from_list(item) for item in data["rets"]]
        facts.referenced_globals = list(data["globals"])
        facts.mod = set(data["mod"])
        facts.ref = set(data["ref"])
        view = data.get("view")
        if view is not None:
            from ..hlo.profile_view import ProfileView

            facts.view = ProfileView(
                facts.name,
                block_counts={label: int(count) for label, count
                              in view["blocks"].items()},
                edge_counts={(f, t): int(c) for f, t, c in view["edges"]},
                is_static_estimate=bool(view["static"]),
            )
        return facts


def extract_routine_facts(routine: Routine, view=None) -> RoutineFacts:
    """Summarize one routine body in a single pass.

    Constness tracking: walking each block, the running definition
    map holds the latest value each register was assigned in-block (a
    literal for CONST, None for any other producer); call/RET facts
    read the map *before* the instruction's own definition lands.
    """
    facts = RoutineFacts(routine.name, routine.module_name,
                         routine.n_params, bool(routine.exported))
    facts.instr_count = routine.instr_count()
    seen_globals: Dict[str, None] = {}
    entry_label = routine.blocks[0].label if routine.blocks else ""
    for block in routine.blocks:
        defs: Dict[int, Optional[int]] = {}
        in_entry = block.label == entry_label
        last = len(block.instrs) - 1
        for index, instr in enumerate(block.instrs):
            op = instr.op
            if op is Opcode.PROBE:
                facts.probe_count += 1
            elif op is Opcode.CALL:
                facts.sites.append(SiteFacts(
                    block.label, index, instr.sym, in_entry,
                    instr.dst is not None,
                    [(reg, defs.get(reg), reg in defs)
                     for reg in instr.args],
                ))
            elif op is Opcode.RET:
                facts.ret_count += 1
                if index == last:
                    reg = instr.a
                    facts.rets.append(RetFacts(
                        block.label, in_entry, reg,
                        defs.get(reg) if reg is not None else None,
                        (reg in defs) if reg is not None else False,
                    ))
            elif op in (Opcode.LOADG, Opcode.LOADE):
                facts.ref.add(instr.sym)
                seen_globals.setdefault(instr.sym)
            elif op in (Opcode.STOREG, Opcode.STOREE):
                facts.mod.add(instr.sym)
                seen_globals.setdefault(instr.sym)
            if instr.dst is not None:
                defs[instr.dst] = (
                    instr.imm if op is Opcode.CONST else None
                )
    facts.referenced_globals = list(seen_globals)
    facts.view = view
    return facts


def apply_entry_bindings(facts: RoutineFacts, bindings) -> None:
    """Mutate facts for CONSTs inserted at the routine entry.

    ``bindings`` is the ordered [(dst_register, value), ...] list that
    ``ipcp.apply_param_constants`` inserts at entry offsets 0..k-1
    (for IPCP bindings and for ``clone.make_clone``).  Entry-block
    sites shift by k; an argument or returned register with no own
    in-block definition now sees the binding's CONST.
    """
    k = len(bindings)
    if not k:
        return
    bound = dict(bindings)
    facts.instr_count += k
    for site in facts.sites:
        if not site.in_entry:
            continue
        site.index += k
        site.args = [
            (reg, value if has_def else bound.get(reg),
             has_def or reg in bound)
            for reg, value, has_def in site.args
        ]
    for ret in facts.rets:
        if not ret.in_entry or ret.reg is None or ret.has_def:
            continue
        ret.value = bound.get(ret.reg)
        ret.has_def = ret.reg in bound
