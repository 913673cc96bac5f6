"""Partition serialization: LTRANS jobs that cross process boundaries.

The farm coordinator runs the serial WPA half, then ships each
partition to a worker daemon.  Everything a worker needs is built
from primitives that already round-trip deterministically:

* the **shared context** -- program symbol table (with its exact PID
  order, which IR compaction encodes against), HLO/LLO/NAIM options,
  mod/ref analysis, profile views, interprocedural facts and the
  scalar worklist -- encoded once per build as one canonical JSON
  blob.  Canonical here means ``sort_keys`` + fixed separators: a
  warm rebuild of the same program produces the identical blob, so
  the content-addressed store deduplicates it farm-wide.
* each **routine's IR** as NAIM compact bytes (the same encoding the
  offload repository stores), shipped as content-addressed blobs.
* each **outcome** -- machine code via
  :func:`~repro.linker.objects.encode_machine_routines` and the
  worker's loader/accountant/LLO/pass statistics, no IL (a compiled
  body is spent: nothing on the link side reads it again) --
  as a JSON object :class:`~repro.part.runner.PartitionRunner` folds
  back in partition index order, so every observable number is
  independent of which host ran what.

:func:`execute_partition_job` is the worker adapter of the one LTRANS
body, :func:`~repro.hlo.driver.run_ltrans`: private loader over an
overlay, plan replay, then the body's prefetch / pin / scalar / codegen
/ release per routine, then package.  Every transport (link process,
worker processes, farm workers) reaches it through :func:`run_wire_job`,
and the serial link runs the same body in-process, so partitioned and
serial images agree by construction.
"""

from __future__ import annotations

import base64
import json
import sys
import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

from ..hlo.analysis.modref import ModRefAnalysis, ModRefInfo
from ..hlo.driver import run_ltrans
from ..hlo.options import HloOptions
from ..hlo.thin import WpaPlan, replay_plan
from ..hlo.passes import OptContext, PassStats
from ..hlo.profile_view import ProfileView
from ..ir.symbols import GlobalVar, ProgramSymbolTable
from ..linker.objects import (
    LinkError,
    decode_machine_routines,
    encode_machine_routines,
)
from ..llo.driver import LloOptions, LloStats, LowLevelOptimizer
from ..naim.compaction import CompactionError
from ..naim.config import NaimConfig, NaimLevel
from ..naim.loader import Loader, LoaderStats
from ..naim.memory import MemoryAccountant
from ..naim.pools import KIND_IR
from ..naim.repository import OverlayRepository
from ..vm.image import MachineRoutine
from .partition import Partition

#: Version tag inside the shared-context blob; a worker rejects
#: contexts it does not speak rather than miscompiling them.
#: v2 added the optional thin-WPA replay plan and job import lists;
#: v3 ships only the NAIM fields a worker's loader reads; v4 drops the
#: prefetch depth from them (a worker always prefetches one routine
#: ahead).  The version guards this blob, not the reply: replies carry
#: no IL, and a worker that still sends its final bodies
#: (``"returned"``) is understood -- :func:`decode_outcome` never
#: required the field and does not read it.
WIRE_VERSION = 4


class WireError(Exception):
    """A malformed or version-skewed partition payload."""


# -- Shared context ----------------------------------------------------------------


def _symtab_payload(symtab: ProgramSymbolTable) -> Dict:
    return {
        "globals": [
            [var.name, var.size, list(var.init), var.defining_module,
             bool(var.exported)]
            for var in symtab.globals.values()
        ],
        "routines": [
            [name, module] for name, module in symtab.routines.items()
        ],
        # PID order is load-bearing: compact IR encodes symbol
        # references as indexes into this list.
        "pid_order": list(symtab._name_by_pid),
    }


def _decode_symtab(payload: Dict) -> ProgramSymbolTable:
    # Names are canonicalized through sys.intern: pool decoders on
    # this worker intern their strings too, so symbol-table lookups hit
    # CPython's pointer-equality fast path instead of comparing bytes.
    intern = sys.intern
    symtab = ProgramSymbolTable()
    for name, size, init, module, exported in payload["globals"]:
        name = intern(name)
        symtab.globals[name] = GlobalVar(
            name, size, init, module, bool(exported)
        )
    for name, module in payload["routines"]:
        symtab.routines[intern(name)] = module
    for name in payload["pid_order"]:
        symtab.pid_of(intern(name))
    return symtab


def _views_payload(views: Dict[str, ProfileView]) -> Dict:
    return {
        name: {
            "blocks": dict(view.block_counts),
            "edges": [
                [from_label, to_label, count]
                for (from_label, to_label), count
                in view.edge_counts.items()
            ],
            "static": bool(view.is_static_estimate),
            "stale": bool(view.stale),
        }
        for name, view in views.items()
    }


def _decode_views(payload: Dict) -> Dict[str, ProfileView]:
    return {
        name: ProfileView(
            name,
            block_counts=entry.get("blocks") or {},
            edge_counts={
                (from_label, to_label): count
                for from_label, to_label, count in entry.get("edges", [])
            },
            is_static_estimate=bool(entry.get("static")),
            stale=bool(entry.get("stale")),
        )
        for name, entry in payload.items()
    }


def _modref_payload(modref: Optional[ModRefAnalysis]) -> Optional[Dict]:
    if modref is None:
        return None
    return {
        name: {
            "mod": sorted(info.mod),
            "ref": sorted(info.ref),
            "unknown": bool(info.unknown),
        }
        for name, info in modref.info.items()
    }


def _decode_modref(payload: Optional[Dict]) -> Optional[ModRefAnalysis]:
    if payload is None:
        return None
    analysis = ModRefAnalysis()
    for name, entry in payload.items():
        info = ModRefInfo()
        info.mod = set(entry.get("mod", ()))
        info.ref = set(entry.get("ref", ()))
        info.unknown = bool(entry.get("unknown"))
        analysis.info[name] = info
    return analysis


#: The NaimConfig fields a worker's loader reads, shipped under their
#: own names (``level`` and ``cache_pools`` need converting and ride
#: alongside).
_NAIM_WIRE_FIELDS = (
    "physical_memory_bytes", "ir_compact_fraction", "st_compact_fraction",
    "offload_fraction", "cache_fraction", "avg_pool_bytes_hint",
)


def _naim_payload(config: NaimConfig) -> Dict:
    payload = {name: getattr(config, name) for name in _NAIM_WIRE_FIELDS}
    payload["level"] = None if config.level is None else int(config.level)
    payload["cache_pools"] = config._cache_pools
    return payload


def _decode_naim(payload: Dict) -> NaimConfig:
    level = payload["level"]
    return NaimConfig(
        level=None if level is None else NaimLevel(level),
        cache_pools=payload["cache_pools"],
        **{name: payload[name] for name in _NAIM_WIRE_FIELDS}
    )


def _plan_payload(hlo_result) -> Optional[Dict]:
    """The pending WPA replay plan, or None.

    A plan ships only while it is still pending: once the link side
    has replayed it, workers receive final bodies and must not
    re-apply mutations."""
    plan = hlo_result.pending_plan
    return None if plan is None else plan.to_dict()


def encode_shared_context(hlo_result, llo_options: LloOptions,
                          naim_config: NaimConfig,
                          scalar_names) -> bytes:
    """One canonical blob of everything partition-independent.

    Warm rebuilds of an unchanged program re-encode to identical
    bytes, so the CAS stores it once per program state."""
    ctx = hlo_result.ctx
    payload = {
        "wire": WIRE_VERSION,
        "plan": _plan_payload(hlo_result),
        "symtab": _symtab_payload(ctx.symtab),
        "hlo_options": dict(ctx.options.__dict__),
        "llo_options": {
            "opt_level": llo_options.opt_level,
            "use_profile": llo_options.use_profile,
            "schedule_window": llo_options.schedule_window,
        },
        "naim": _naim_payload(naim_config),
        "modref": _modref_payload(ctx.modref),
        "views": _views_payload(ctx.views),
        "readonly_globals": sorted(ctx.readonly_globals),
        "const_returns": dict(ctx.const_returns),
        "scalar": sorted(scalar_names),
    }
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


class SharedJobContext:
    """A decoded shared context, reusable across a worker's jobs.

    Everything here is read-only during partition execution *except*
    profile views, which the scalar passes mutate per routine -- so
    views are rebuilt fresh from the raw payload for every job
    (:meth:`fresh_views`) while the symbol table, options and
    analysis results are decoded once and shared."""

    def __init__(self, payload: Dict) -> None:
        if payload.get("wire") != WIRE_VERSION:
            raise WireError(
                "unsupported wire version %r (worker speaks %d)"
                % (payload.get("wire"), WIRE_VERSION)
            )
        self.symtab = _decode_symtab(payload["symtab"])
        options = HloOptions()
        options.__dict__.update(payload["hlo_options"])
        self.hlo_options = options
        llo = payload["llo_options"]
        self.llo_options = LloOptions(
            opt_level=llo["opt_level"],
            use_profile=bool(llo["use_profile"]),
            schedule_window=llo["schedule_window"],
        )
        self.naim_config = _decode_naim(payload["naim"])
        self.modref = _decode_modref(payload.get("modref"))
        self._views_payload = payload.get("views") or {}
        self.readonly_globals = set(payload.get("readonly_globals", ()))
        self.const_returns = dict(payload.get("const_returns", {}))
        self.scalar_set = frozenset(payload.get("scalar", ()))
        plan_payload = payload.get("plan")
        #: Pending WPA replay plan (None when the link side already
        #: replayed).  Read-only across jobs: replay_plan never mutates
        #: the plan itself.
        self.plan = (
            WpaPlan.from_dict(plan_payload)
            if plan_payload is not None else None
        )

    def fresh_views(self) -> Dict[str, ProfileView]:
        return _decode_views(self._views_payload)


def decode_shared_context(data: bytes) -> SharedJobContext:
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError("undecodable shared context: %s" % exc)
    if not isinstance(payload, dict):
        raise WireError("shared context must be a JSON object")
    return SharedJobContext(payload)


#: Decoded shared contexts an executor keeps: a coordinator's process pool
#: or farm worker decodes each program state once, however many
#: partitions and builds it serves.
CONTEXT_CACHE_ENTRIES = 4


class ContextCache:
    """LRU of decoded shared contexts, keyed by their content hash.

    Safe across threads (a farm worker's job slots share one); the
    decode itself runs outside the lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, SharedJobContext]" = OrderedDict()

    def get(self, key: str, store) -> SharedJobContext:
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                return cached
        shared = decode_shared_context(store.get_blob(key))
        with self._lock:
            shared = self._entries.setdefault(key, shared)
            while len(self._entries) > CONTEXT_CACHE_ENTRIES:
                self._entries.popitem(last=False)
        return shared


# -- Statistics --------------------------------------------------------------------


def _accountant_payload(accountant: MemoryAccountant) -> Dict:
    return {
        "usage": [
            [category, name, nbytes]
            for (category, name), nbytes in accountant._usage.items()
        ],
        "peak": accountant.peak,
        "samples": [[label, total] for label, total in accountant.samples],
        "mapped_bytes": accountant.mapped_bytes,
        "reclaimable_bytes": accountant.reclaimable_bytes,
    }


def _decode_accountant(payload: Dict) -> MemoryAccountant:
    accountant = MemoryAccountant()
    for category, name, nbytes in payload.get("usage", []):
        accountant.set_usage(category, name, nbytes)
    accountant.peak = max(accountant.peak, payload.get("peak", 0))
    accountant.samples = [
        (label, total) for label, total in payload.get("samples", [])
    ]
    accountant.mapped_bytes = payload.get("mapped_bytes", 0)
    accountant.reclaimable_bytes = payload.get("reclaimable_bytes", 0)
    return accountant


def _decode_loader_stats(payload: Dict) -> LoaderStats:
    stats = LoaderStats()
    for name, value in payload.items():
        if hasattr(stats, name):
            setattr(stats, name, value)
    return stats


def _decode_llo_stats(payload: Dict) -> LloStats:
    stats = LloStats()
    stats.routines = payload.get("routines", 0)
    stats.instructions = payload.get("instructions", 0)
    stats.spilled = payload.get("spilled", 0)
    stats.stall_fills = payload.get("stall_fills", 0)
    stats.peak_working_bytes = payload.get("peak_working_bytes", 0)
    return stats


# -- Outcomes ----------------------------------------------------------------------


class PartitionOutcome:
    """Everything one partition hands back for deterministic folding."""

    def __init__(self) -> None:
        self.machines: Dict[str, MachineRoutine] = {}
        self.loader_stats: Optional[LoaderStats] = None
        self.accountant: Optional[MemoryAccountant] = None
        self.llo_stats: Optional[LloStats] = None
        self.pass_stats: Optional[PassStats] = None
        self.views: Dict[str, ProfileView] = {}


def decode_outcome(partition: Partition, payload: Dict) -> PartitionOutcome:
    """Rehydrate a worker's reply into the shape
    :meth:`PartitionRunner._fold` consumes.

    The reply comes from another process or host: anything malformed
    raises :class:`WireError` naming the partition."""
    outcome = PartitionOutcome()
    try:
        if payload["index"] != partition.index:
            raise ValueError("reply is for partition %r" % payload["index"])
        machines = decode_machine_routines(
            base64.b64decode(payload["machines_b64"])
        )
    except (KeyError, TypeError, AttributeError, ValueError,
            CompactionError, LinkError) as exc:
        # ValueError covers binascii.Error (undecodable base64).
        raise WireError(
            "malformed outcome for partition %d: %s: %s"
            % (partition.index, type(exc).__name__, exc)
        )
    outcome.machines = {machine.name: machine for machine in machines}
    outcome.loader_stats = _decode_loader_stats(
        payload.get("loader_stats", {})
    )
    outcome.accountant = _decode_accountant(payload.get("accountant", {}))
    outcome.llo_stats = _decode_llo_stats(payload.get("llo_stats", {}))
    stats = PassStats()
    stats.counts = dict(payload.get("pass_counts", {}))
    stats.seconds = dict(payload.get("pass_seconds", {}))
    # Optional: a worker that predates the scheduled pipeline sends none.
    schedule = payload.get("pass_schedule", {})
    stats.runs = dict(schedule.get("runs", {}))
    stats.skips = dict(schedule.get("skips", {}))
    stats.capped = list(schedule.get("capped", ()))
    outcome.pass_stats = stats
    outcome.views = _decode_views(payload.get("views", {}))
    return outcome


# -- Worker-side execution ---------------------------------------------------------


def job_pool_keys(job: Dict) -> Dict[Tuple[str, str], str]:
    """``(KIND_IR, name) -> CAS key`` for every body a job ships.

    Entries without a ``"pool"`` are WPA clones (the plan replay
    creates their bodies); ``"imports"`` are read-only replay inputs."""
    entries = list(job["routines"]) + list(job.get("imports") or [])
    return {
        (KIND_IR, entry["name"]): entry["pool"]
        for entry in entries if "pool" in entry
    }


class CasBackedRepository:
    """NAIM ``(kind, name)`` reads resolved through a CAS mapping.

    A partition job names its input pools by routine name but ships
    them as content-addressed blobs; this adapter lets the worker's
    loader (and prefetch pipeline) fetch by name while the bytes come
    from the blob store under their content hash.  Read-only by
    design: workers publish results as new blobs, never mutate
    inputs."""

    def __init__(self, store, mapping: Dict[Tuple[str, str], str]) -> None:
        self._store = store
        self._mapping = dict(mapping)

    def fetch(self, kind: str, name: str) -> bytes:
        key = self._mapping.get((kind, name))
        if key is None:
            raise KeyError("no %s pool %r in partition inputs"
                           % (kind, name))
        return self._store.get_blob(key)

    def fetch_many(
        self, keys: Iterable[Tuple[str, str]]
    ) -> Dict[Tuple[str, str], bytes]:
        wanted = [(key, self._mapping.get(key)) for key in keys]
        hashes = [h for _, h in wanted if h is not None]
        blobs = self._store.get_blobs(hashes)
        return {
            key: blobs[h]
            for key, h in wanted if h is not None and h in blobs
        }

    def contains(self, kind: str, name: str) -> bool:
        return (kind, name) in self._mapping

    def stored_size(self, kind: str, name: str) -> int:
        return len(self.fetch(kind, name))


def run_wire_job(job: Dict, store, contexts: ContextCache) -> Dict:
    """Execute one job descriptor against a blob store.

    ``store`` answers ``get_blob(key)`` / ``get_blobs(keys)`` for the
    keys the link side published; this is the whole executor side of
    every transport."""
    shared = contexts.get(str(job["ctx"]), store)
    repository = CasBackedRepository(store, job_pool_keys(job))
    return execute_partition_job(shared, job, repository)


def execute_partition_job(shared: SharedJobContext, job: Dict,
                          repository) -> Dict:
    """Run one partition: adopt, replay, :func:`~repro.hlo.driver.
    run_ltrans`, package -- the worker adapter of the LTRANS body.

    ``repository`` supplies every routine's compact IR under
    ``(KIND_IR, name)`` (see :class:`CasBackedRepository`).  The
    worker's loader dies with the job and leaves no body behind: the
    reply carries machine code and statistics."""
    index = job["index"]
    names: List[str] = [entry["name"] for entry in job["routines"]]
    worker_loader = Loader(
        shared.naim_config,
        shared.symtab,
        MemoryAccountant(),
        OverlayRepository(repository),
        checked=shared.hlo_options.checked,
    )
    # Entries without a "pool" are thin-WPA clones: no body exists yet,
    # the plan replay below creates it.  Imports are read-only callee
    # bodies the replay reads; they are released before compilation.
    handles = {
        entry["name"]: worker_loader.adopt_routine(
            entry["name"], offloaded=True
        )
        for entry in job["routines"] if "pool" in entry
    }
    import_entries = job.get("imports") or []
    for entry in import_entries:
        if "pool" in entry and entry["name"] not in handles:
            handles[entry["name"]] = worker_loader.adopt_routine(
                entry["name"], offloaded=True
            )

    ctx = OptContext(shared.symtab, shared.hlo_options, shared.modref)
    ctx.views = shared.fresh_views()
    ctx.readonly_globals = shared.readonly_globals
    ctx.const_returns = shared.const_returns

    if shared.plan is not None:
        worker_loader.phase = "replay"
        scope = set(names)
        scope.update(entry["name"] for entry in import_entries)
        replay_plan(
            shared.plan, scope, worker_loader, handles, ctx.views,
            shared.hlo_options,
        )
        for entry in import_entries:
            handle = handles.pop(entry["name"], None)
            if handle is not None:
                worker_loader.release(handle)

    llo = LowLevelOptimizer(shared.llo_options, worker_loader.accountant)
    machines = run_ltrans(
        worker_loader, handles, names, shared.scalar_set, ctx,
        llo.compile_routine, worker_loader.release_spent,
    )
    worker_loader.accountant.mark("ltrans:p%d" % index)

    return {
        "index": index,
        "machines_b64": base64.b64encode(
            encode_machine_routines(list(machines.values()))
        ).decode("ascii"),
        "loader_stats": worker_loader.stats.as_dict(),
        "accountant": _accountant_payload(worker_loader.accountant),
        "llo_stats": {
            "routines": llo.stats.routines,
            "instructions": llo.stats.instructions,
            "spilled": llo.stats.spilled,
            "stall_fills": llo.stats.stall_fills,
            "peak_working_bytes": llo.stats.peak_working_bytes,
        },
        "pass_counts": dict(ctx.stats.counts),
        "pass_seconds": dict(ctx.stats.seconds),
        "pass_schedule": {
            "runs": dict(ctx.stats.runs),
            "skips": dict(ctx.stats.skips),
            "capped": list(ctx.stats.capped),
        },
        "views": _views_payload({
            name: ctx.views[name]
            for name in names if name in ctx.views
        }),
    }
