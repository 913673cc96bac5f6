"""The profile database (paper §3).

Running an instrumented program produces raw probe counts; collection
turns those into per-routine block/edge/call counts stored in a
:class:`ProfileDatabase`.  Databases persist as JSON, merge across runs
("generated, or added to, if data from an earlier run already exists"),
and are handed to the compiler to enable PBO.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional, Set, Tuple

from .probes import ProbeTable

_FORMAT_VERSION = 2
#: Versions ``from_json`` understands; older ones are migrated on load.
_SUPPORTED_VERSIONS = (1, 2)

#: The ``decay`` a new database records (a version-2 field, loaded and
#: saved unchanged).
DEFAULT_DECAY = 0.5

class ProfileFormatError(ValueError):
    """A profile database file has an unknown or malformed format.

    Carries the offending version so callers (CLI, coordinator) can report
    it without string-parsing the message.
    """

    def __init__(self, message: str, found: object = None) -> None:
        super().__init__(message)
        self.found = found
        self.expected = _FORMAT_VERSION


class RoutineProfile:
    """Dynamic execution counts for one routine."""

    __slots__ = ("name", "checksum", "entry_label", "block_counts",
                 "edge_counts", "call_counts", "stale", "last_epoch")

    def __init__(self, name: str, checksum: int, entry_label: str = "") -> None:
        self.name = name
        self.checksum = checksum
        #: Label of the routine's entry block (drives entry_count).
        self.entry_label = entry_label
        #: block label -> execution count.
        self.block_counts: Dict[str, int] = {}
        #: (from_label, to_label) -> count, for conditional edges.
        self.edge_counts: Dict[Tuple[str, str], int] = {}
        #: (block_label, instr_index, callee) -> count.
        self.call_counts: Dict[Tuple[str, int, str], int] = {}
        #: True when correlation degraded this profile (structure changed).
        self.stale = False
        #: Epoch of the freshest sample in a version-2 file (0 = offline);
        #: loaded and saved unchanged.
        self.last_epoch = 0

    @property
    def entry_count(self) -> int:
        """Executions of the routine (its entry block's count)."""
        return self.block_counts.get(self.entry_label, 0)

    def total_block_weight(self) -> int:
        return sum(self.block_counts.values())

    def filtered_to_labels(self, labels: Set[str]) -> "RoutineProfile":
        """Copy keeping only data about blocks in ``labels`` (staleness)."""
        copy = RoutineProfile(self.name, self.checksum, self.entry_label)
        copy.block_counts = {
            label: count
            for label, count in self.block_counts.items()
            if label in labels
        }
        copy.edge_counts = {
            key: count
            for key, count in self.edge_counts.items()
            if key[0] in labels and key[1] in labels
        }
        copy.call_counts = {
            key: count for key, count in self.call_counts.items() if key[0] in labels
        }
        return copy

    def merge(self, other: "RoutineProfile") -> None:
        for label, count in other.block_counts.items():
            self.block_counts[label] = self.block_counts.get(label, 0) + count
        for key, count in other.edge_counts.items():
            self.edge_counts[key] = self.edge_counts.get(key, 0) + count
        for key, count in other.call_counts.items():
            self.call_counts[key] = self.call_counts.get(key, 0) + count

    def __repr__(self) -> str:
        return "<RoutineProfile %s entry=%d blocks=%d%s>" % (
            self.name,
            self.entry_count,
            len(self.block_counts),
            " STALE" if self.stale else "",
        )


class ProfileDatabase:
    """All routines' profiles for one application."""

    def __init__(self, decay: float = DEFAULT_DECAY) -> None:
        self.routines: Dict[str, RoutineProfile] = {}
        #: How many training runs were merged in.
        self.run_count = 0
        #: ``epoch`` and ``decay`` of a version-2 file, loaded and saved
        #: unchanged (0 = an offline database).
        self.epoch = 0
        self.decay = decay

    # -- Collection ------------------------------------------------------------

    @staticmethod
    def from_probe_counts(
        table: ProbeTable, counts: Mapping[int, int]
    ) -> "ProfileDatabase":
        """Build a database from raw probe counts of one training run.

        ``counts`` maps probe id -> hit count (missing ids count 0); it
        accepts both the interpreter's dict and a dense list wrapped in
        ``dict(enumerate(...))``.
        """
        database = ProfileDatabase()
        database.run_count = 1
        for name, checksum in table.checksums.items():
            labels = table.block_labels.get(name, [])
            profile = RoutineProfile(name, checksum, labels[0] if labels else "")
            block_probe = table.block_probe.get(name, {})
            for label in labels:
                probe_id = block_probe[label]
                profile.block_counts[label] = counts.get(probe_id, 0)
            for edge in table.edges.get(name, []):
                profile.edge_counts[(edge.from_label, edge.to_label)] = counts.get(
                    edge.probe_id, 0
                )
            for block_label, index, callee in table.call_sites.get(name, []):
                profile.call_counts[(block_label, index, callee)] = (
                    profile.block_counts.get(block_label, 0)
                )
            database.routines[name] = profile
        return database

    @staticmethod
    def from_probe_list(table: ProbeTable, counts: List[int]) -> "ProfileDatabase":
        """Variant taking the VM's dense probe-count list."""
        return ProfileDatabase.from_probe_counts(table, dict(enumerate(counts)))

    # -- Merging ---------------------------------------------------------------

    def merge(self, other: "ProfileDatabase") -> None:
        """Accumulate another run's counts into this database."""
        for name, profile in other.routines.items():
            mine = self.routines.get(name)
            if mine is None or mine.checksum != profile.checksum:
                # New or structurally changed routine: newest wins.
                self.routines[name] = profile
            else:
                mine.merge(profile)
        self.run_count += other.run_count

    # -- Queries -----------------------------------------------------------------

    def profile_for(self, routine_name: str) -> Optional[RoutineProfile]:
        return self.routines.get(routine_name)

    def call_site_weights(self) -> Dict[Tuple[str, str, int], int]:
        """{(caller, block, index): count} over the whole program."""
        weights: Dict[Tuple[str, str, int], int] = {}
        for profile in self.routines.values():
            for (block, index, _callee), count in profile.call_counts.items():
                weights[(profile.name, block, index)] = count
        return weights

    def total_call_count(self) -> int:
        return sum(
            count
            for profile in self.routines.values()
            for count in profile.call_counts.values()
        )

    def hottest_routines(self, limit: int = 10) -> List[Tuple[str, int]]:
        ranked = sorted(
            ((name, p.total_block_weight()) for name, p in self.routines.items()),
            key=lambda item: (-item[1], item[0]),
        )
        return ranked[:limit]

    # -- Persistence -----------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "version": _FORMAT_VERSION,
            "run_count": self.run_count,
            "epoch": self.epoch,
            "decay": self.decay,
            "routines": {
                name: {
                    "checksum": profile.checksum,
                    "entry_label": profile.entry_label,
                    "last_epoch": profile.last_epoch,
                    "stale": profile.stale,
                    "blocks": profile.block_counts,
                    "edges": [
                        [f, t, count] for (f, t), count in profile.edge_counts.items()
                    ],
                    "calls": [
                        [block, index, callee, count]
                        for (block, index, callee), count in
                        profile.call_counts.items()
                    ],
                }
                for name, profile in self.routines.items()
            },
        }
        return json.dumps(payload, indent=1, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ProfileDatabase":
        """Parse a database, migrating version-1 files transparently.

        Version 1 lacks ``epoch``/``decay`` and per-routine
        ``last_epoch``/``stale``, all of which default to the offline
        state (epoch 0, nothing stale).
        Saving a migrated database rewrites it as version 2.  Anything
        else raises :class:`ProfileFormatError`.
        """
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ProfileFormatError(
                "profile database is not valid JSON: %s" % exc
            )
        if not isinstance(payload, dict):
            raise ProfileFormatError(
                "profile database must be a JSON object, got %s"
                % type(payload).__name__
            )
        version = payload.get("version")
        if version not in _SUPPORTED_VERSIONS:
            raise ProfileFormatError(
                "unsupported profile database version %r (supported: %s)"
                % (version, ", ".join(str(v) for v in _SUPPORTED_VERSIONS)),
                found=version,
            )
        database = ProfileDatabase(decay=payload.get("decay", DEFAULT_DECAY))
        database.run_count = payload.get("run_count", 1)
        database.epoch = payload.get("epoch", 0)
        for name, entry in payload["routines"].items():
            profile = RoutineProfile(
                name, entry["checksum"], entry.get("entry_label", "")
            )
            profile.block_counts = dict(entry["blocks"])
            profile.edge_counts = {
                (f, t): count for f, t, count in entry["edges"]
            }
            profile.call_counts = {
                (block, index, callee): count
                for block, index, callee, count in entry["calls"]
            }
            if version >= 2:
                profile.last_epoch = entry.get("last_epoch", 0)
                profile.stale = bool(entry.get("stale", False))
            database.routines[name] = profile
        return database

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @staticmethod
    def load(path: str) -> "ProfileDatabase":
        with open(path, "r", encoding="utf-8") as handle:
            return ProfileDatabase.from_json(handle.read())

    def __len__(self) -> int:
        return len(self.routines)

    def __repr__(self) -> str:
        return "<ProfileDatabase (%d routines, %d runs)>" % (
            len(self.routines),
            self.run_count,
        )
