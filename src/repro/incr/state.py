"""Persistent incremental-CMO state and the per-link session.

:class:`IncrementalState` owns everything that survives between
builds, stored in a NAIM :class:`~repro.naim.repository.Repository`
(in-memory, or on disk next to the artifact cache):

* the previous build's :class:`ModuleSummary` per CMO module,
* each routine's post-inline reuse key, by module,
* one cached codegen blob per module (its machine routines), named by
  a digest of the module's routine keys, and
* the last link's WPA outcome, under a digest of everything that WPA
  read (a link with the same digest applies it instead of deciding).

Beside the repository the state keeps what it derived from it, each
value a :class:`~repro.memo.Memo` under the exact input it came from: a
warm process derives nothing twice, a checked link derives all again.

:class:`IncrLinkSession` is the scratchpad for one link: the compiler
driver opens it with the current module set, the HLO driver decides
reuse per routine against the cached blobs, the codegen loop splices
cached/fresh machine routines, and ``commit`` atomically replaces the
persistent state and prunes stale blobs.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from operator import methodcaller
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..linker.objects import (
    decode_machine_routines,
    encode_machine_routines,
)
from ..memo import Memo, MemoMismatchError, Memos
from ..naim.repository import Repository
from ..sched.artifacts import PIPELINE_EPOCH
from .summary import SUMMARY_FORMAT, ModuleSummary, RoutineFacts

_INDEX_KIND = "incr"
_INDEX_NAME = "index"
_MACHINE_KIND = "mach"
#: Per-module thin-WPA facts blobs (summary-only WPA reuses them for
#: unchanged modules instead of re-scanning bodies).
_FACTS_KIND = "summ"
#: The last deciding link's WPA outcome (one blob).
_WPA_KIND = "wpa"
_WPA_NAME = "outcome"
_WPA_FORMAT = 1


def _digest(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def module_blob_key(module_name: str, routine_keys: Dict[str, str]) -> str:
    """The name of the ``mach`` blob holding the machine routines whose
    reuse keys ``routine_keys`` (routine name -> key) gives."""
    return _digest(module_name, *(
        "%s=%s" % item for item in sorted(routine_keys.items())
    ))


def facts_digest(facts_dicts: List[dict]) -> str:
    """Canonical digest of one module's facts (its ``summ`` routines
    list)."""
    return _digest(json.dumps(facts_dicts, sort_keys=True))


def encode_wpa_blob(inputs: dict, outcome: dict) -> bytes:
    """One header line (the inputs digest and its parts, the body's
    checksum), then the outcome."""
    body = json.dumps(outcome, sort_keys=True).encode("utf-8")
    header = dict(inputs, format=_WPA_FORMAT,
                  sum=hashlib.sha256(body).hexdigest()[:16])
    return json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + body


def decode_wpa_blob(data: bytes) -> Tuple[dict, dict]:
    """``(header, outcome)``; raises on any damage."""
    head, _newline, body = bytes(data).partition(b"\n")
    header = json.loads(head.decode("utf-8"))
    if header["format"] != _WPA_FORMAT or (
        header["sum"] != hashlib.sha256(body).hexdigest()[:16]
    ):
        raise ValueError("bad wpa blob")
    header["facts"] = [(name, value) for name, value in header["facts"]]
    return header, json.loads(body.decode("utf-8"))


def _parse_facts(blob: bytes, fingerprint: str) -> Optional[List[RoutineFacts]]:
    """The facts of one ``summ`` blob; None when it was written for
    another format or fingerprint; raises on damage."""
    data = json.loads(blob.decode("utf-8"))
    if data.get("format") != SUMMARY_FORMAT:
        return None
    if data.get("fingerprint") != fingerprint:
        return None
    routines = data["routines"]
    if not isinstance(routines, list):
        raise ValueError("bad facts payload")
    return [RoutineFacts.from_dict(item) for item in routines]


def _facts_fields(facts: Optional[List[RoutineFacts]]) -> dict:
    return {item.name: item.to_dict() for item in facts or ()}


def _machine_fields(machines: list) -> dict:
    return {machine.name: encode_machine_routines([machine])
            for machine in machines}


_dump_sorted = partial(json.dumps, sort_keys=True)


class IncrLinkReport:
    """What one incremental link did, for humans and benchmarks."""

    def __init__(self) -> None:
        self.first_build = False
        #: Modules whose source-level summary changed since last build.
        self.changed_modules: List[str] = []
        #: Modules whose cached codegen was spliced in unchanged.
        self.reused: List[str] = []
        #: Modules one or more of whose routines went through the scalar
        #: pipeline + LLO again.
        self.reoptimized: List[str] = []
        #: Those routines, sorted.
        self.compiled_routines: List[str] = []
        #: Routines dropped by dead-function elimination, per module.
        self.dfe_removed: Dict[str, List[str]] = {}
        #: "reused": the WPA applied the stored outcome; "decided": it
        #: ran, for ``wpa_reason``.
        self.wpa = "decided"
        self.wpa_reason = ""

    def reuse_fraction(self) -> float:
        total = len(self.reused) + len(self.reoptimized)
        return len(self.reused) / total if total else 0.0

    def describe_wpa(self) -> str:
        """``reused`` or ``decided (<reason>)``."""
        if self.wpa_reason:
            return "%s (%s)" % (self.wpa, self.wpa_reason)
        return self.wpa

    def __repr__(self) -> str:
        return ("<IncrLinkReport reused=%d reoptimized=%d compiled=%d "
                "changed=%r wpa=%s%s>") % (
            len(self.reused), len(self.reoptimized),
            len(self.compiled_routines), self.changed_modules,
            self.describe_wpa(),
            " first-build" if self.first_build else "",
        )


class IncrLinkSession:
    """Mutable per-link record threaded through the CMO pipeline."""

    def __init__(self, state: "IncrementalState", options_fp: str,
                 checked: bool = False) -> None:
        self.state = state
        self.options_fp = options_fp
        #: ``HloOptions.checked``: derive every memo this link hits again.
        self.checked = checked
        #: Current build's summaries (module name -> ModuleSummary) and
        #: their fingerprints, hashed once when the link opens.
        self.summaries: Dict[str, ModuleSummary] = {}
        self.fingerprints: Dict[str, str] = {}
        self.changed_modules: List[str] = []
        self.first_build = False
        #: module -> routine name -> post-inline reuse key, unit order.
        self.routine_keys: Dict[str, Dict[str, str]] = {}
        #: module -> :func:`module_blob_key` of its routine keys.
        self.module_keys: Dict[str, str] = {}
        #: Routines whose cached machine code will be spliced in.
        self.reused_routines: Set[str] = set()
        #: Modules holding a routine that is compiled again.
        self.reoptimized_modules: Set[str] = set()
        #: routine name -> MachineRoutine (decoded cache hits).
        self.cached_machines: Dict[str, object] = {}
        #: module -> all its machine routines in unit order, cached and
        #: fresh, for each reoptimized module (its new blob).
        self.fresh_machines: Dict[str, List[object]] = {}
        self.dfe_removed: Dict[str, List[str]] = {}
        #: module -> pristine extraction-time facts dicts (thin WPA), for
        #: the modules this link scanned; committed as ``summ`` blobs
        #: keyed by the module's summary fingerprint so the next build
        #: can skip body scans.  A module whose facts were all loaded
        #: has no entry: its blob is already what commit would write.
        self.module_facts: Dict[str, List[dict]] = {}
        #: module -> :func:`facts_digest`, for the modules this link
        #: scanned.
        self.facts_digests: Dict[str, str] = {}
        #: Structured events this link raised (``machine-blob-fallback``,
        #: ``wpa-outcome-fallback``); the HLO driver folds them into
        #: ``HloResult.events``.
        self.events: List[Dict[str, object]] = []
        #: Which WPA ran ("reused" / "decided") and, when it decided,
        #: why it could not reuse.
        self.wpa = "decided"
        self.wpa_reason = ""
        #: The digest of this link's WPA inputs and its parts.
        self.wpa_inputs: Optional[dict] = None
        #: A deciding link's outcome (``WpaOutcome.to_dict``), stored
        #: at commit under ``wpa_inputs``.
        self.wpa_outcome: Optional[dict] = None

    # -- Thin-WPA facts cache -------------------------------------------------------

    def record_facts(self, module_name: str, facts_dicts: List[dict]) -> None:
        """Stash one module's pristine (pre-mutation) facts for commit."""
        self.module_facts[module_name] = facts_dicts
        self.facts_digests[module_name] = facts_digest(facts_dicts)

    def load_facts(self, module_name: str):
        """Cached facts for a module, verified against its fingerprint.

        Returns ``(facts, None)`` -- one :class:`RoutineFacts` per
        routine, the state's own: read them, copy what you mutate -- on
        a verified hit, or
        ``(None, reason)`` -- reason in {"missing", "corrupt",
        "fingerprint-mismatch"} -- when the thin phase must fall back to
        scanning that module's bodies.  The check compares the recorded
        fingerprint against the *current* module summary, so a stale
        blob (pack-repo entry from an older body) can never feed wrong
        sizes or call edges into the whole-program decisions; a payload
        that parses as JSON but not as facts is corrupt like any other.

        The blob is fetched on every call; its parse is a memo
        (``IncrementalState.parsed_facts``) under the fingerprint and
        the bytes.
        """
        fingerprint = self.fingerprints.get(module_name)
        state = self.state
        if fingerprint is None or not state.repository.contains(
            _FACTS_KIND, module_name
        ):
            return None, "missing"
        try:
            blob = bytes(state.repository.fetch(_FACTS_KIND, module_name))
            facts = state.parsed_facts.memo(module_name).get(
                (fingerprint, blob), _parse_facts, blob, fingerprint,
                checked=self.checked,
            )
        except MemoMismatchError:
            raise
        except Exception:
            state.repository.discard(_FACTS_KIND, module_name)
            return None, "corrupt"
        if facts is None:
            return None, "fingerprint-mismatch"
        return facts, None

    # -- Stored WPA outcome ---------------------------------------------------------

    def lookup_wpa(
        self,
        modules: Iterable[Tuple[str, List[RoutineFacts]]],
        global_names: List[str],
        selected: Optional[Set[str]],
        externally_callable: Set[str],
        externally_visible_globals: Set[str],
    ) -> Optional[dict]:
        """The stored outcome, when this link's WPA inputs equal those
        of the last committed link; else None, with ``wpa_reason`` set.

        ``modules`` is (module name, pristine facts in unit order) per
        module, in program order.  The digest covers the options
        (``options_fp``, the selection set, ``externally_callable``),
        each module's facts digest in module order, and the globals
        (each module's summary shapes with initializer hashes, the
        program's global names, ``externally_visible_globals``).  A
        module this link did not scan takes its facts digest from the
        stored header, which the index vouches for; only without one is
        it hashed again.  A blob the index promised that is gone or
        damaged raises a ``wpa-outcome-fallback`` event.
        """
        state = self.state
        header, outcome, problem = state.load_wpa(self.checked)
        if problem is not None and state.wpa_digest is not None:
            self.events.append({
                "event": "wpa-outcome-fallback", "reason": problem,
            })
        vouched = header is not None and header["digest"] == state.wpa_digest
        stored_facts = dict(header["facts"]) if vouched else {}
        facts = []
        for name, routines in modules:
            value = self.facts_digests.get(name) or stored_facts.get(name)
            if value is None:
                value = facts_digest([item.to_dict() for item in routines])
            facts.append((name, value))
        options = _digest(
            self.options_fp,
            "*" if selected is None else " ".join(sorted(selected)),
            " ".join(sorted(externally_callable)),
        )
        shapes = [
            "%s:%s=%d/%d/%s" % (name, var, size, int(exported), init)
            for name, _routines in facts
            for var, (size, exported, init)
            in sorted(self.summaries[name].globals.items())
        ]
        globals_ = _digest(
            " ".join(shapes), " ".join(global_names),
            " ".join(sorted(externally_visible_globals)),
        )
        digest = _digest(options, globals_,
                         " ".join("%s=%s" % pair for pair in facts))
        self.wpa_inputs = {"digest": digest, "options": options,
                           "globals": globals_, "facts": facts}
        if self.first_build:
            self.wpa_reason = (
                "options" if state.summary_fingerprints else "first-build"
            )
        elif header is None:
            self.wpa_reason = problem
        elif vouched and digest == header["digest"]:
            self.wpa = "reused"
            return outcome
        else:
            self.wpa_reason = _why_inputs_differ(header, self.wpa_inputs)
        return None

    def reject_wpa(self) -> None:
        """The stored outcome did not parse: drop it and decide."""
        self.state.repository.discard(_WPA_KIND, _WPA_NAME)
        self.events.append({
            "event": "wpa-outcome-fallback", "reason": "corrupt",
        })
        self.wpa = "decided"
        self.wpa_reason = "corrupt"

    def record_wpa(self, outcome: dict) -> None:
        """A deciding link's outcome, stored at commit."""
        self.wpa_outcome = outcome

    def rekeyed_routines(self, unit, plan) -> Optional[Set[str]]:
        """Routines whose reuse key this link must derive again: every
        one (None) when it decided its WPA; when it reused the stored
        outcome, the ones whose body hash changed, every routine whose
        replay reads one of those (transitively, per the plan:
        :meth:`~repro.hlo.thin.WpaPlan.readers_closure`), and any the
        last link committed no key for.  Every other key is the
        committed one: the inputs it hashes are equal."""
        if self.wpa != "reused":
            return None
        previous = self.state.summaries
        edited: Set[str] = set()
        for module_name in self.changed_modules:
            before = previous.get(module_name, {}).get("body_hashes", {})
            for name, value in self.summaries[module_name].body_hashes.items():
                if before.get(name) != value:
                    edited.add(name)
        routine_module = unit.routine_module
        committed = self.state.routine_keys
        empty: Dict[str, str] = {}
        # An edited routine dead-function elimination removed has no key.
        rekeyed = {name for name in plan.readers_closure(edited)
                   if name in routine_module}
        rekeyed.update(
            name for name, module_name in routine_module.items()
            if name not in committed.get(module_name, empty)
        )
        return rekeyed

    # -- Recording hooks (called from the HLO driver) ------------------------------

    def record_dfe(self, removed_by_module: Dict[str, List[str]]) -> None:
        self.dfe_removed = dict(removed_by_module)

    # -- Reuse decision -------------------------------------------------------------

    def decide_reuse(self, fresh_keys: Dict[str, str],
                     routine_module: Dict[str, str]) -> Set[str]:
        """Routines whose cached machine code matches the exact key.

        ``fresh_keys`` holds the keys this link derived (every routine's,
        or :meth:`rekeyed_routines`'); every other routine of
        ``routine_module`` (name -> module, unit order) keeps its
        committed key.  A routine is reused when its key equals the
        committed one and its machine routine is in hand *now*, from its
        module's committed blob: a corrupt or missing blob degrades to a
        fresh compile instead of a broken skip, and says so with a
        ``machine-blob-fallback`` event (the index promised it).
        """
        state = self.state
        committed = state.routine_keys
        committed_blobs = state.module_keys
        keys: Dict[str, Dict[str, str]] = {}
        for name, module_name in routine_module.items():
            key = fresh_keys.get(name)
            if key is None:
                key = committed[module_name][name]
            keys.setdefault(module_name, {})[name] = key
        self.routine_keys = keys
        self.module_keys = {}
        self.reused_routines = set()
        self.reoptimized_modules = set()
        self.cached_machines = {}
        empty: Dict[str, str] = {}
        for module_name, routine_keys in keys.items():
            before = committed.get(module_name, empty)
            if routine_keys == before:
                self.module_keys[module_name] = committed_blobs[module_name]
                hits = list(routine_keys)
            else:
                self.module_keys[module_name] = module_blob_key(
                    module_name, routine_keys
                )
                hits = [name for name, key in routine_keys.items()
                        if before.get(name) == key]
            machines = None
            if hits:
                blob_key = committed_blobs[module_name]
                machines, reason = state.load_machines(blob_key, self.checked)
                if machines is None:
                    self.events.append({
                        "event": "machine-blob-fallback",
                        "module": module_name,
                        "key": blob_key,
                        "reason": reason,
                    })
            found = 0
            if machines is not None:
                by_name = {machine.name: machine for machine in machines}
                for name in hits:
                    machine = by_name.get(name)
                    if machine is not None:
                        self.cached_machines[name] = machine
                        self.reused_routines.add(name)
                        found += 1
            if found < len(routine_keys):
                self.reoptimized_modules.add(module_name)
        return self.reused_routines


def _why_inputs_differ(header: dict, inputs: dict) -> str:
    """The ``wpa_reason`` of a stored outcome for other inputs."""
    if header["options"] != inputs["options"]:
        return "options"
    then = {name: (index, value)
            for index, (name, value) in enumerate(header["facts"])}
    now = {name: (index, value)
           for index, (name, value) in enumerate(inputs["facts"])}
    changed = sorted(
        name for name in set(then) | set(now) if then.get(name) != now.get(name)
    )
    if changed:
        return "facts-changed: " + ", ".join(changed)
    if header["globals"] != inputs["globals"]:
        return "globals"
    return "stale"


class IncrementalState:
    """Summary/dep/codegen state persisted across CMO links."""

    def __init__(self, directory: Optional[str] = None) -> None:
        # Level 1: every link that changes the index rewrites all of it,
        # and a process reads it once (about 4x faster than level 6,
        # a fifth larger; any level decodes).
        self.repository = Repository(
            directory=directory, in_memory=directory is None,
            compress_level=1,
        )
        #: Previous build's summaries, serialized form, and the
        #: fingerprint of each (all ``begin_link`` compares).
        self.summaries: Dict[str, dict] = {}
        self.summary_fingerprints: Dict[str, str] = {}
        #: module -> routine -> reuse key, and module -> the name of the
        #: blob holding those routines' machine code (derived).
        self.routine_keys: Dict[str, Dict[str, str]] = {}
        self.module_keys: Dict[str, str] = {}
        self.options_fp = ""
        #: The WPA-inputs digest of the last committed link, when it
        #: left its outcome in the ``wpa`` blob (None: no blob vouched).
        self.wpa_digest: Optional[str] = None
        self.last_report: Optional[IncrLinkReport] = None
        # The memos, shared with every link that hits them, so nothing
        # may mutate a value (a link copies the facts it edits): the
        # machine routines per reuse key; each module's ``summ`` facts
        # under (fingerprint, bytes); the ``wpa/outcome`` parse and the
        # ``AppliedWpa`` applying it gave, under its bytes; the index
        # text the repository holds, and each summary's text under its
        # fingerprint, and each module's routine keys as text under its
        # blob key.
        self.machines = Memos("machine routines", _machine_fields)
        self.parsed_facts = Memos("summ facts", _facts_fields)
        self.stored_wpa = Memo("stored wpa outcome")
        self.applied_wpa = Memo("applied wpa", methodcaller("fields"))
        self.index_text = Memo("index text")
        self.summary_texts = Memos("summary text")
        self.key_texts = Memos("routine keys text")
        if directory is not None:
            self.repository.reindex()
        self._load_index()

    # -- Index persistence ----------------------------------------------------------

    def _load_index(self) -> None:
        if not self.repository.contains(_INDEX_KIND, _INDEX_NAME):
            return
        try:
            text = bytes(self.repository.fetch(_INDEX_KIND, _INDEX_NAME))
            data = json.loads(text.decode("utf-8"))
        except Exception:
            return  # unreadable state: behave like a first build
        if data.get("epoch") != PIPELINE_EPOCH or (
            data.get("format") != SUMMARY_FORMAT
        ):
            return  # older compiler version: invalidate wholesale
        self.summaries = data.get("summaries", {})
        # An index written before fingerprints were kept lacks them.
        stored = data.get("summary_fingerprints") or {}
        self.summary_fingerprints = {
            name: stored.get(name)
            or ModuleSummary.from_dict(summary).fingerprint()
            for name, summary in self.summaries.items()
        }
        # An index written before the dependency edges were dropped
        # still has a "deps" key: nothing reads it.
        self.routine_keys = data.get("routine_keys", {})
        self.module_keys = {
            name: module_blob_key(name, keys)
            for name, keys in self.routine_keys.items()
        }
        self.options_fp = data.get("options_fp", "")
        # An index written before the stored WPA outcome vouches for none.
        self.wpa_digest = data.get("wpa")
        self.index_text.keep(text, text)

    def _save_index(self, checked: bool) -> None:
        """Store the index, unless it is the text the repository holds."""
        if not self.repository.contains(_INDEX_KIND, _INDEX_NAME):
            self.index_text.clear()
        text = self.index_bytes(checked)
        self.index_text.get(text, self._store_index, text)

    def _store_index(self, text: bytes) -> bytes:
        self.repository.store(_INDEX_KIND, _INDEX_NAME, text)
        return text

    def index_bytes(self, checked: bool = False) -> bytes:
        """The index as ``json.dumps(index, sort_keys=True)`` would
        write it, encoding only the module summaries whose fingerprint
        moved since the last call; the rest is text that call made."""
        texts = self.summary_texts
        texts.retain(self.summaries)
        key_texts = self.key_texts
        key_texts.retain(self.routine_keys)

        def join(open_, items, close):
            return open_ + ", ".join(items) + close

        parts = {
            "epoch": json.dumps(PIPELINE_EPOCH),
            "format": json.dumps(SUMMARY_FORMAT),
            "options_fp": json.dumps(self.options_fp),
            "summaries": join("{", (
                "%s: %s" % (json.dumps(name), texts.memo(name).get(
                    self.summary_fingerprints[name], _dump_sorted,
                    self.summaries[name], checked=checked,
                ))
                for name in sorted(self.summaries)
            ), "}"),
            "summary_fingerprints": json.dumps(self.summary_fingerprints,
                                               sort_keys=True),
            "routine_keys": join("{", (
                "%s: %s" % (json.dumps(name), key_texts.memo(name).get(
                    self.module_keys[name], _dump_sorted,
                    self.routine_keys[name], checked=checked,
                ))
                for name in sorted(self.routine_keys)
            ), "}"),
            "wpa": json.dumps(self.wpa_digest),
        }
        return join("{", (
            "%s: %s" % (json.dumps(key), parts[key]) for key in sorted(parts)
        ), "}").encode("utf-8")

    # -- The stored WPA outcome ------------------------------------------------------

    def load_wpa(self, checked: bool = False):
        """``(header, outcome, None)``, or ``(None, None, reason)`` --
        reason in {"missing", "corrupt"}; a corrupt blob is dropped.  The
        blob is fetched on every call; its parse is the memo
        ``stored_wpa`` under the bytes (header and outcome are shared
        with every link that parsed the same bytes: do not mutate them)."""
        if not self.repository.contains(_WPA_KIND, _WPA_NAME):
            return None, None, "missing"
        try:
            blob = bytes(self.repository.fetch(_WPA_KIND, _WPA_NAME))
            header, outcome = self.stored_wpa.get(
                blob, decode_wpa_blob, blob, checked=checked
            )
        except MemoMismatchError:
            raise
        except Exception:
            self.repository.discard(_WPA_KIND, _WPA_NAME)
            return None, None, "corrupt"
        return header, outcome, None

    # -- Machine-code blobs -----------------------------------------------------------

    def load_machines(self, key: str, checked: bool = False):
        """The machine routines cached under ``key``.

        Returns ``(machines, None)``, or ``(None, reason)`` -- reason in
        {"missing", "corrupt"} -- when the module must be recompiled.
        The list is shared with every other link that reuses the key:
        callers must not mutate it or its routines.  The repository
        stays the authority: a key it no longer contains is a miss even
        if its routines are still resident here.
        """
        if not self.repository.contains(_MACHINE_KIND, key):
            self.machines.pop(key, None)
            return None, "missing"
        try:
            machines = self.machines.memo(key).get(
                key, self._decode_machines, key, checked=checked
            )
        except MemoMismatchError:
            raise
        except Exception:
            self.machines.pop(key, None)
            self.repository.discard(_MACHINE_KIND, key)
            return None, "corrupt"
        return machines, None

    def _decode_machines(self, key: str) -> list:
        return decode_machine_routines(
            self.repository.fetch(_MACHINE_KIND, key)
        )

    def store_machines(self, key: str, machines: list) -> None:
        self.repository.store(
            _MACHINE_KIND, key, encode_machine_routines(machines)
        )
        self.machines.memo(key).keep(key, machines)

    # -- Session lifecycle ------------------------------------------------------------

    def reset_counters(self) -> None:
        """Zero the backing repository's per-build operation counters.

        The state (and its repository) outlive individual links; the
        engine calls this at build start so fetch/store counts reported
        for one link describe that link only."""
        self.repository.reset_counters()

    def begin_link(self, summaries, options_fp: str,
                   checked: bool = False) -> IncrLinkSession:
        """Open a session for one link of the modules ``summaries``
        (:class:`ModuleSummary`, one per CMO module) describe;
        ``checked`` derives every memo it hits again."""
        session = IncrLinkSession(self, options_fp, checked)
        session.summaries = {
            summary.module_name: summary for summary in summaries
        }
        session.fingerprints = {
            name: summary.fingerprint()
            for name, summary in session.summaries.items()
        }
        previous_fps = self.summary_fingerprints
        session.first_build = (
            not previous_fps or options_fp != self.options_fp
        )
        changed = [
            name for name, fingerprint in session.fingerprints.items()
            if previous_fps.get(name) != fingerprint
        ]
        session.changed_modules = sorted(changed)
        return session

    def commit(self, session: IncrLinkSession) -> IncrLinkReport:
        """Persist the session's outcome; returns the link report."""
        for module_name, machines in session.fresh_machines.items():
            self.store_machines(session.module_keys[module_name], machines)

        fingerprints = session.fingerprints
        for module_name, facts_dicts in session.module_facts.items():
            fingerprint = fingerprints.get(module_name)
            if fingerprint is None:
                continue
            self.repository.store(
                _FACTS_KIND, module_name,
                json.dumps({
                    "format": SUMMARY_FORMAT,
                    "fingerprint": fingerprint,
                    "routines": facts_dicts,
                }, sort_keys=True).encode("utf-8"),
            )
        for name in self.repository.names(_FACTS_KIND):
            if name not in session.summaries:
                self.repository.discard(_FACTS_KIND, name)
        self.parsed_facts.retain(session.summaries)

        # The WPA outcome: a deciding link leaves its own, a reusing one
        # leaves the blob it applied, any other (a link with a profile
        # decides without the facts cache) leaves none.
        if session.wpa_outcome is not None:
            self.repository.store(
                _WPA_KIND, _WPA_NAME,
                encode_wpa_blob(session.wpa_inputs, session.wpa_outcome),
            )
            self.wpa_digest = session.wpa_inputs["digest"]
        elif session.wpa != "reused":
            self.repository.discard(_WPA_KIND, _WPA_NAME)
            self.wpa_digest = None

        # Equal fingerprints mean equal serialized summaries.
        previous_fps = self.summary_fingerprints
        self.summaries = {
            name: self.summaries[name]
            if previous_fps.get(name) == fingerprints[name]
            else summary.to_dict()
            for name, summary in session.summaries.items()
        }
        self.summary_fingerprints = dict(fingerprints)
        self.routine_keys = session.routine_keys
        self.module_keys = session.module_keys
        self.options_fp = session.options_fp
        self._save_index(session.checked)
        self._prune_machines()

        report = IncrLinkReport()
        report.first_build = session.first_build
        report.changed_modules = session.changed_modules
        report.reused = sorted(
            name for name in session.routine_keys
            if name not in session.reoptimized_modules
        )
        report.reoptimized = sorted(session.reoptimized_modules)
        report.compiled_routines = sorted(
            name for keys in session.routine_keys.values() for name in keys
            if name not in session.reused_routines
        )
        report.dfe_removed = session.dfe_removed
        report.wpa = session.wpa
        report.wpa_reason = session.wpa_reason
        self.last_report = report
        return report

    def _prune_machines(self) -> None:
        """Drop codegen blobs no current module blob key names.

        On pack segments a discard only tombstones the frame; once
        enough dead bytes accumulate, fold them out so the on-disk
        state does not grow monotonically across incremental builds.
        """
        live = set(self.module_keys.values())
        for name in self.repository.names(_MACHINE_KIND):
            if name not in live:
                self.repository.discard(_MACHINE_KIND, name)
        self.machines.retain(live)
        self.repository.maybe_compact()

    def close(self) -> None:
        self.repository.close()

    def __repr__(self) -> str:
        return "<IncrementalState %d modules, %d cached blobs>" % (
            len(self.summaries),
            len(self.repository.names(_MACHINE_KIND)),
        )
