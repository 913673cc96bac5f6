"""Content-addressed artifact cache for compiled objects.

Keys are ``sha256(epoch, module, language, options, source)``: any
input that could change the compiled object participates -- including
the pipeline version epoch -- so a hit is always safe to reuse -- across :class:`~repro.driver.build.BuildEngine` instances,
across processes (with ``directory=``), and across differently-named
workspaces.  This subsumes the engine's old per-instance fingerprint
dict: the fingerprint dict answered "did *this engine* already compile
this module?", the artifact cache answers "has *anyone with the same
inputs* compiled it?".

Values are opaque bytes (serialized :class:`ObjectFile`s in practice).
The cache is size-bounded with LRU eviction and keeps hit/miss/evict
counters; all operations are lock-protected so parallel compile
workers can share one instance.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from typing import Dict, Optional

#: Version epoch of the compile pipeline.  It participates in every
#: artifact key (and in the incremental-CMO state index), so artifacts
#: produced by an older compiler version miss instead of being reused.
#: Bump it whenever codegen, the optimizer pipeline, or any serialized
#: wire format changes in a way that could make old artifacts stale.
PIPELINE_EPOCH = "2"


class CacheStats:
    """Observable cache activity."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    def delta(self, since: "CacheStats") -> "CacheStats":
        """Activity since an earlier :meth:`snapshot` of this object.

        The coordinator's sessions share one cache; each request reports the
        delta over its own build instead of resetting shared counters
        under concurrent readers."""
        out = CacheStats()
        out.hits = self.hits - since.hits
        out.misses = self.misses - since.misses
        out.stores = self.stores - since.stores
        out.evictions = self.evictions - since.evictions
        return out

    def snapshot(self) -> "CacheStats":
        out = CacheStats()
        out.hits = self.hits
        out.misses = self.misses
        out.stores = self.stores
        out.evictions = self.evictions
        return out

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:
        return "<CacheStats hits=%d misses=%d stores=%d evictions=%d>" % (
            self.hits, self.misses, self.stores, self.evictions
        )


class ArtifactCache:
    """Size-bounded LRU store of build artifacts, keyed by content.

    ``max_bytes`` bounds the sum of stored artifact sizes; inserting
    past the bound evicts least-recently-used entries first.  With
    ``directory=`` every entry is mirrored as ``<key>.art`` on disk and
    existing files are re-indexed on construction, so warm caches
    survive process restarts.
    """

    def __init__(self, max_bytes: int = 64 * 1024 * 1024,
                 directory: Optional[str] = None) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = max_bytes
        self.directory = directory
        self.stats = CacheStats()
        self._lock = threading.Lock()
        #: key -> artifact bytes, in LRU order (oldest first).
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._total_bytes = 0
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            self._load_directory()

    # -- Key derivation ----------------------------------------------------------

    @staticmethod
    def key(source: str, language: str = "auto", options: str = "",
            module: str = "", epoch: str = PIPELINE_EPOCH) -> str:
        """The content address of one compilation's inputs.

        ``epoch`` defaults to the current :data:`PIPELINE_EPOCH`, so
        entries written by an older compiler version never hit.
        """
        digest = hashlib.sha256()
        for part in (epoch, module, language, options, source):
            digest.update(part.encode("utf-8"))
            digest.update(b"\x00")
        return digest.hexdigest()

    # -- Persistence -------------------------------------------------------------

    def _path(self, key: str) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, key + ".art")

    def _load_directory(self) -> None:
        assert self.directory is not None
        for entry in sorted(os.listdir(self.directory)):
            if not entry.endswith(".art"):
                continue
            path = os.path.join(self.directory, entry)
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
            except OSError:
                continue
            self._insert(entry[: -len(".art")], data, persist=False)

    # -- Core operations -----------------------------------------------------------

    def get(self, key: str) -> Optional[bytes]:
        """The stored artifact, or None; a hit refreshes LRU order."""
        with self._lock:
            data = self._entries.get(key)
            if data is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return data

    def put(self, key: str, data: bytes) -> None:
        """Store an artifact, evicting LRU entries past ``max_bytes``.

        An artifact bigger than the whole bound is stored anyway (the
        cache would otherwise be useless for it) and evicted by the
        next insert.
        """
        with self._lock:
            self._insert(key, data, persist=True)
            self.stats.stores += 1

    def _insert(self, key: str, data: bytes, persist: bool) -> None:
        old = self._entries.pop(key, None)
        if old is not None:
            self._total_bytes -= len(old)
        while self._entries and (
            self._total_bytes + len(data) > self.max_bytes
        ):
            self._evict_one()
        self._entries[key] = data
        self._total_bytes += len(data)
        if persist and self.directory is not None:
            with open(self._path(key), "wb") as handle:
                handle.write(data)

    def _evict_one(self) -> None:
        key, data = self._entries.popitem(last=False)
        self._total_bytes -= len(data)
        self.stats.evictions += 1
        if self.directory is not None:
            path = self._path(key)
            if os.path.exists(path):
                os.unlink(path)

    # -- Queries -----------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._total_bytes

    def stats_snapshot(self) -> CacheStats:
        """A consistent copy of the counters (for delta reporting)."""
        with self._lock:
            return self.stats.snapshot()

    def clear(self) -> None:
        with self._lock:
            if self.directory is not None:
                for key in self._entries:
                    path = self._path(key)
                    if os.path.exists(path):
                        os.unlink(path)
            self._entries.clear()
            self._total_bytes = 0

    def __repr__(self) -> str:
        return "<ArtifactCache %d entries, %d/%d bytes, %r>" % (
            len(self._entries), self._total_bytes, self.max_bytes,
            self.stats,
        )
