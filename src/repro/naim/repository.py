"""The on-disk repository for offloaded pools (paper §4.2).

"All other transitory data is compacted and potentially kept in an
off-line disk repository."  The repository stores relocatable pool
bytes keyed by (kind, name); because relocatable form maps directly to
the loaded representation (no translation step), fetches are fast --
the paper's stated advantage over the Convex Application Compiler's
monolithic repository.  Each pool is an independent entry, so reading
one routine never drags the rest of the program in.

Storage:

* on disk -- pools are appended to large segment files
  (:mod:`repro.naim.packfile`) with an in-memory offset index.
  Sealed segments carry a footer index and are read through ``mmap``,
  so a fetch is an index lookup plus a slice of the page cache -- no
  per-pool open/read/close.  Entries above a size threshold are
  transparently zlib-compressed (per-entry flag; small pools stay
  raw).  Discarded and overwritten entries are marked dead in the
  index and their bytes reported as reclaimable until
  :meth:`compact_segments` rewrites the live set.
* in-memory (``in_memory=True``) -- a dict, backing unit tests and
  the partition workers' private overlays.

Only ``seg-NNNNN.pack`` files are the repository's; :meth:`Repository.
reindex` leaves every other file in the directory alone.
"""

from __future__ import annotations

import os
import re
import tempfile
import threading
import zlib
from typing import Dict, Iterable, List, Optional, Tuple

from . import packfile
from .intern import InternPool
from .packfile import (
    FLAG_COMPRESSED,
    PackEntry,
    PackFormatError,
    SEGMENT_MAGIC,
)

_SEGMENT_RE = re.compile(r"^seg-(\d{5,})\.pack$")

#: Tombstone flag: a frame recording a discard, so dead entries stay
#: dead across a reopen + reindex.  Tombstones carry no payload.
FLAG_TOMBSTONE = 0x02


class RepositoryError(Exception):
    """The repository's on-disk state could not be trusted."""


class _Segment:
    """One pack segment: its file, and how to read from it.

    Sealed segments are immutable and memory-mapped; the active
    segment is read with ``os.pread`` on its read/write handle (safe
    against concurrent appends -- ``pread`` carries its own offset and
    every append is flushed before the index learns about it).
    """

    __slots__ = ("segment_id", "path", "size", "sealed", "handle", "mm",
                 "entries")

    def __init__(self, segment_id: int, path: str) -> None:
        self.segment_id = segment_id
        self.path = path
        self.size = 0
        self.sealed = False
        self.handle = None  # open file object while active
        self.mm = None  # mmap once sealed
        #: Frames appended while active (footer material, in order).
        self.entries: List[PackEntry] = []

    def read_span(self, offset: int, length: int):
        """Bytes-like view of ``length`` bytes at ``offset``."""
        if self.mm is not None:
            return memoryview(self.mm)[offset:offset + length]
        return os.pread(self.handle.fileno(), length, offset)

    def close(self) -> None:
        if self.mm is not None:
            try:
                self.mm.close()
            except (BufferError, ValueError):
                pass  # readers may still hold views; OS reclaims at exit
            self.mm = None
        if self.handle is not None:
            try:
                self.handle.close()
            except OSError:
                pass
            self.handle = None

    def try_close(self) -> bool:
        """Close only if no exported memoryview pins the mapping.

        Zero-copy fetches hand out views over ``mm``; closing under a
        live view raises ``BufferError``.  Returns False in that case
        so the caller keeps the segment retired for a later attempt.
        """
        if self.mm is not None:
            try:
                self.mm.close()
            except (BufferError, ValueError):
                return False
            self.mm = None
        if self.handle is not None:
            try:
                self.handle.close()
            except OSError:
                pass
            self.handle = None
        return True


def _verified_span(segment: _Segment, entry: PackEntry):
    """The stored payload of ``entry``, checked against the CRC-32 its
    frame records; raises :class:`RepositoryError` when they differ (a
    damaged raw entry would otherwise be returned as if intact)."""
    span = segment.read_span(entry.payload_offset, entry.stored_len)
    crc = entry.crc
    if crc is None:  # indexed from a footer: read the frame's once
        crc = entry.crc = packfile.frame_crc(
            segment.read_span(entry.offset, packfile.FRAME_BYTES)
        )
    if zlib.crc32(span) != crc:
        raise RepositoryError(
            "pack entry %s:%s fails its CRC check" % (entry.kind, entry.name)
        )
    return span


class Repository:
    """Disk-backed store of relocatable pool encodings.

    With ``directory=None`` the repository lives in a temp directory
    created on first use and removed on :meth:`close`.  An in-memory
    mode (``in_memory=True``) backs unit tests that should not touch
    the filesystem while exercising the same interface.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        in_memory: bool = False,
        compress_level: int = 6,
        compress_min_bytes: int = 512,
        segment_bytes: int = 8 * 1024 * 1024,
    ) -> None:
        self._directory = directory
        self._owned_directory: Optional[str] = None
        self._in_memory = in_memory
        self.compress_level = compress_level
        self.compress_min_bytes = compress_min_bytes
        self.segment_bytes = max(64 * 1024, segment_bytes)
        self._mem: Dict[Tuple[str, str], bytes] = {}
        self._known: Dict[Tuple[str, str], int] = {}
        #: key -> (segment, PackEntry) for every on-disk pool.  A pair
        #: looked up under the lock stays readable after it is released:
        #: a sealed segment's mmap outlives any index swap (compaction
        #: retires it but keeps the mapping open), and the active
        #: segment's handle is never closed while the repository is open.
        self._located: Dict[Tuple[str, str], Tuple[_Segment, PackEntry]] = {}
        self._segments: Dict[int, _Segment] = {}
        self._active: Optional[_Segment] = None
        self._next_segment_id = 0
        #: Segments replaced by compaction; their mmaps stay alive for
        #: readers (and zero-copy views) that resolved before the swap.
        #: :meth:`release_retired` closes them once no view pins them;
        #: anything still pinned is closed at :meth:`close`.
        self._retired: List[_Segment] = []
        #: Per-repository string intern pool, shared by every decoder
        #: that reads this repository's pools (loader, compaction, wire
        #: context snapshots).
        self.intern = InternPool()
        #: Messages from the last reindex()'s recovery scans.
        self.reindex_errors: List[str] = []
        # Partition workers fetch concurrently; the index and counters
        # are shared mutable state, so updates take this lock.
        self._lock = threading.Lock()
        #: Operation counters (observable by benchmarks).
        self.stores = 0
        #: Store requests whose bytes matched the live entry (no write).
        self.store_skips = 0
        self.fetches = 0
        self.batch_fetches = 0
        self.bytes_written = 0
        self.bytes_read = 0
        #: Index/footer traffic, counted apart from pool payload I/O
        #: (footers, tombstones, footer reads during reindex).
        self.index_bytes_written = 0
        self.index_bytes_read = 0
        #: Segment-compaction activity.
        self.segment_compactions = 0
        self.compaction_bytes_written = 0
        #: Dead bytes (overwritten/discarded entries + tombstones)
        #: awaiting compaction -- the "no silent leak" gauge.
        self.reclaimable_bytes = 0
        self.dead_entries = 0
        self._mapped_bytes = 0
        #: Retired segment mappings actually closed (view-release).
        self.retired_releases = 0

    def reset_counters(self) -> None:
        """Zero the operation counters without touching stored pools.

        A long-lived repository (incremental state, build server)
        serves many builds from one process; per-build stats are only
        meaningful if each build starts from zero.  Gauges describing
        state (reclaimable bytes, mapped bytes) are *not* reset.
        """
        with self._lock:
            self.stores = 0
            self.store_skips = 0
            self.fetches = 0
            self.batch_fetches = 0
            self.bytes_written = 0
            self.bytes_read = 0
            self.index_bytes_written = 0
            self.index_bytes_read = 0
            self.segment_compactions = 0
            self.compaction_bytes_written = 0

    # -- Paths ------------------------------------------------------------------

    def _ensure_directory(self) -> str:
        if self._directory is None:
            self._owned_directory = tempfile.mkdtemp(prefix="naim_repo_")
            self._directory = self._owned_directory
        else:
            os.makedirs(self._directory, exist_ok=True)
        return self._directory

    def _segment_path(self, segment_id: int) -> str:
        return os.path.join(
            self._ensure_directory(), "seg-%05d.pack" % segment_id
        )

    # -- Pack internals (call with the lock held) ----------------------------------

    def _open_segment(self) -> _Segment:
        segment = _Segment(self._next_segment_id,
                           self._segment_path(self._next_segment_id))
        self._next_segment_id += 1
        segment.handle = open(segment.path, "w+b")
        segment.handle.write(SEGMENT_MAGIC)
        segment.handle.flush()
        segment.size = len(SEGMENT_MAGIC)
        self._segments[segment.segment_id] = segment
        return segment

    def _active_segment(self) -> _Segment:
        if self._active is None:
            self._active = self._open_segment()
        return self._active

    def _append_frame(self, segment: _Segment, kind: str, name: str,
                      stored: bytes, raw_len: int, flags: int) -> PackEntry:
        frame = packfile.encode_entry(kind, name, stored, raw_len, flags)
        offset = segment.size
        segment.handle.write(frame)
        segment.handle.flush()
        segment.size += len(frame)
        payload_offset = offset + len(frame) - len(stored)
        entry = PackEntry(kind, name, offset, payload_offset, raw_len,
                          len(stored), flags, packfile.frame_crc(frame))
        segment.entries.append(entry)
        return entry

    def _seal(self, segment: _Segment) -> None:
        """Write the footer index; the segment becomes immutable + mmap'd."""
        if segment.sealed:
            return
        footer = packfile.encode_footer(segment.entries)
        segment.handle.write(footer)
        segment.handle.flush()
        segment.size += len(footer)
        self.index_bytes_written += len(footer)
        segment.sealed = True
        self._map_segment(segment)

    def _map_segment(self, segment: _Segment) -> None:
        import mmap

        with open(segment.path, "rb") as handle:
            segment.mm = mmap.mmap(handle.fileno(), 0,
                                   access=mmap.ACCESS_READ)
        self._mapped_bytes += len(segment.mm)

    def _maybe_roll(self) -> None:
        if self._active is not None and self._active.size >= self.segment_bytes:
            self._seal(self._active)
            self._active = None

    def _kill_entry(self, key: Tuple[str, str]) -> None:
        """Mark ``key``'s current pack entry dead (reclaimable)."""
        located = self._located.pop(key, None)
        if located is not None:
            _segment, entry = located
            self.reclaimable_bytes += entry.frame_len
            self.dead_entries += 1

    # -- Store / fetch -------------------------------------------------------------

    def store(self, kind: str, name: str, data: bytes) -> None:
        key = (kind, name)
        if self._in_memory:
            with self._lock:
                self.stores += 1
                self.bytes_written += len(data)
                self._known[key] = len(data)
                self._mem[key] = data
            return
        stored, flags = packfile.encode_payload(
            data, self.compress_level, self.compress_min_bytes
        )
        # Skip identical re-stores.  The loader re-offloads every evicted
        # pool, but most round-trips bring the bytes back unchanged;
        # deterministic compression means equal raw bytes encode to equal
        # stored bytes, so one length/flags check plus a compare against
        # the live entry's span avoids the append entirely.
        plan = None
        with self._lock:
            located = self._located.get(key)
            if (located is not None
                    and located[1].stored_len == len(stored)
                    and located[1].flags == flags):
                plan = located
        if plan is not None:
            segment, entry = plan
            span = segment.read_span(entry.payload_offset, entry.stored_len)
            # memoryview == bytes compares contents without a copy.
            if span == stored:
                with self._lock:
                    if self._located.get(key) is plan:
                        self.stores += 1
                        self.store_skips += 1
                        return
        with self._lock:
            segment = self._active_segment()
            entry = self._append_frame(segment, kind, name, stored,
                                       len(data), flags)
            self._kill_entry(key)
            self._located[key] = (segment, entry)
            self._known[key] = len(data)
            self.stores += 1
            self.bytes_written += entry.frame_len
            self._maybe_roll()

    def fetch(self, kind: str, name: str):
        """Bytes-like payload of one pool.

        For uncompressed entries in sealed pack segments this is a
        zero-copy ``memoryview`` over the segment mmap (compressed
        entries come back as ``bytes``).  A live view pins its
        mapping across compaction -- retired segments are only closed
        by :meth:`release_retired` once every view is gone -- so
        callers may hold the view as long as they like, but should
        drop it promptly to let retired segments actually release.

        On disk the stored payload is checked against the CRC-32 its
        frame records: a damaged entry raises :class:`RepositoryError`
        instead of coming back as if intact.
        """
        key = (kind, name)
        with self._lock:
            if key not in self._known:
                raise KeyError("repository has no %s pool %r" % (kind, name))
            self.fetches += 1
            if self._in_memory:
                data = self._mem[key]
                self.bytes_read += len(data)
                return data
            segment, entry = self._located[key]
            self.bytes_read += entry.stored_len
        return packfile.decode_payload_view(_verified_span(segment, entry),
                                            entry.flags)

    def fetch_many(
        self, keys: Iterable[Tuple[str, str]]
    ) -> Dict[Tuple[str, str], bytes]:
        """Fetch a batch of pools in one pass.

        Values are bytes-like (zero-copy ``memoryview`` for
        uncompressed pack entries -- see :meth:`fetch`).

        Partition workers and the loader's prefetch pipeline warm
        offloaded pools with a single batch instead of one
        :meth:`fetch` round-trip per touch.  Keys absent from the
        repository are silently skipped (the caller decides whether
        that is an error); each key present counts as one fetch, the
        batch as one ``batch_fetches``.  The lock is taken **once per
        batch**: every counter (including exact ``bytes_read``) is
        settled while resolving, so concurrent batches never interleave
        half-updated totals.  Each payload is CRC-checked as in
        :meth:`fetch`.
        """
        plans: Dict[Tuple[str, str], Tuple[_Segment, PackEntry]] = {}
        mem: Dict[Tuple[str, str], bytes] = {}
        with self._lock:
            self.batch_fetches += 1
            total = hits = 0
            for key in keys:
                if key not in self._known:
                    continue
                hits += 1
                if self._in_memory:
                    data = self._mem[key]
                    mem[key] = data
                    total += len(data)
                else:
                    plans[key] = self._located[key]
                    total += plans[key][1].stored_len
            self.fetches += hits
            self.bytes_read += total
        if self._in_memory:
            return mem
        out: Dict[Tuple[str, str], bytes] = {}
        for key, (segment, entry) in plans.items():
            out[key] = packfile.decode_payload_view(
                _verified_span(segment, entry), entry.flags
            )
        return out

    def discard(self, kind: str, name: str) -> bool:
        """Drop one pool if present; returns whether it existed.

        On disk the entry is marked dead in the index and a tombstone
        frame is appended (so the discard survives a reopen +
        reindex); the bytes stay on disk -- counted in
        ``reclaimable_bytes`` -- until :meth:`compact_segments`.
        """
        key = (kind, name)
        with self._lock:
            if key not in self._known:
                return False
            del self._known[key]
            self._mem.pop(key, None)
            if not self._in_memory:
                self._kill_entry(key)
                segment = self._active_segment()
                tombstone = self._append_frame(
                    segment, kind, name, b"", 0, FLAG_TOMBSTONE
                )
                self.index_bytes_written += tombstone.frame_len
                self.reclaimable_bytes += tombstone.frame_len
                self._maybe_roll()
        return True

    # -- Reindex / recovery ---------------------------------------------------------

    def reindex(self, strict: bool = False) -> int:
        """Rebuild the (kind, name) index from an existing directory.

        A fresh Repository instance only knows about pools it stored
        itself; pointing it at a directory written by an earlier
        process and calling ``reindex`` makes those pools fetchable
        again.  Pack segments are indexed from their footers; a
        segment with a missing or damaged footer (crash before seal)
        is recovered by scanning its entry frames, keeping the
        CRC-verified prefix.  Damage descriptions are collected in
        ``reindex_errors``; with ``strict=True`` any damage raises
        :class:`RepositoryError` instead.  Returns the number of
        indexed pools.  Files that are not segments are left alone.
        """
        if self._in_memory or self._directory is None:
            return len(self._known)
        if not os.path.isdir(self._directory):
            return 0
        with self._lock:
            self.reindex_errors = []
            segment_ids = []
            for entry in os.listdir(self._directory):
                match = _SEGMENT_RE.match(entry)
                if match:
                    segment_ids.append(int(match.group(1)))
            for segment_id in sorted(segment_ids):
                self._reindex_segment(segment_id)
        if strict and self.reindex_errors:
            raise RepositoryError(
                "repository index rebuild found damage: "
                + "; ".join(self.reindex_errors)
            )
        return len(self._known)

    def _reindex_segment(self, segment_id: int) -> None:
        """Index one existing segment file (lock held)."""
        if segment_id in self._segments:
            return  # already open (our own write)
        path = self._segment_path(segment_id)
        try:
            size = os.path.getsize(path)
        except OSError as exc:
            self.reindex_errors.append("%s: %s" % (path, exc))
            return
        self._next_segment_id = max(self._next_segment_id, segment_id + 1)
        if size < len(SEGMENT_MAGIC):
            self.reindex_errors.append(
                "%s: shorter than the segment header" % os.path.basename(path)
            )
            return
        segment = _Segment(segment_id, path)
        segment.size = size
        segment.sealed = True  # reopened segments are never appended to
        try:
            self._map_segment(segment)
        except (OSError, ValueError) as exc:
            self.reindex_errors.append("%s: %s" % (path, exc))
            return
        if not packfile.check_header(segment.mm, size=size):
            self.reindex_errors.append(
                "%s: bad segment header magic" % os.path.basename(path)
            )
            self._mapped_bytes -= len(segment.mm)
            segment.close()
            return
        entries = packfile.read_footer(segment.mm, size=size)
        if entries is not None:
            self.index_bytes_read += packfile.footer_span(segment.mm,
                                                          size=size)
        else:
            entries, error = packfile.scan_segment(segment.mm, size=size)
            if error is not None:
                self.reindex_errors.append(
                    "%s: recovered %d entries, then: %s"
                    % (os.path.basename(path), len(entries), error)
                )
        segment.entries = entries
        self._segments[segment_id] = segment
        for entry in entries:  # offset order: later frames supersede
            key = (entry.kind, entry.name)
            if entry.flags & FLAG_TOMBSTONE:
                self._kill_entry(key)
                self._known.pop(key, None)
                self.reclaimable_bytes += entry.frame_len
                continue
            self._kill_entry(key)
            self._located[key] = (segment, entry)
            self._known[key] = entry.raw_len

    # -- Compaction ----------------------------------------------------------------

    def maybe_compact(self, min_fraction: float = 0.25,
                      min_bytes: int = 64 * 1024) -> int:
        """Compact when enough dead bytes accumulated; returns reclaimed.

        The incremental pruner and the coordinator's between-requests hook
        call this: cheap to call, only rewrites when at least
        ``min_bytes`` *and* ``min_fraction`` of the stored bytes are
        dead.
        """
        with self._lock:
            # Every compaction opportunity is also a release
            # opportunity: retired mmaps whose views have since been
            # dropped are closed here, so view lifetime ends at the
            # next maybe_compact() rather than at repository close.
            self._release_retired_locked()
            if self.reclaimable_bytes < min_bytes:
                return 0
            stored = sum(segment.size for segment in self._segments.values())
            if stored <= 0 or self.reclaimable_bytes < min_fraction * stored:
                return 0
        return self.compact_segments()

    def compact_segments(self) -> int:
        """Rewrite segments keeping only live entries; returns bytes freed.

        Live frames are copied verbatim (no recompression) into fresh
        segments in (segment, offset) order, footers written, the index
        swapped, and the old files unlinked.  Old mmaps are *retired*,
        not closed: a concurrent reader that resolved its entry before
        the swap still reads valid bytes, and POSIX keeps unlinked
        mapped files alive until the mapping goes away.
        """
        with self._lock:
            if self._in_memory:
                return 0
            if not self._segments:
                return 0
            before = sum(segment.size for segment in self._segments.values())
            ordered = sorted(
                self._located.items(),
                key=lambda item: (item[1][0].segment_id, item[1][1].offset),
            )
            old_segments = list(self._segments.values())
            self._segments = {}
            self._active = None
            new_located: Dict[Tuple[str, str], Tuple[_Segment, PackEntry]] = {}
            copied = 0
            for key, (old_segment, old_entry) in ordered:
                segment = self._active_segment()
                frame = bytes(old_segment.read_span(old_entry.offset,
                                                    old_entry.frame_len))
                offset = segment.size
                segment.handle.write(frame)
                segment.size += len(frame)
                shift = offset - old_entry.offset
                entry = PackEntry(
                    old_entry.kind, old_entry.name, offset,
                    old_entry.payload_offset + shift, old_entry.raw_len,
                    old_entry.stored_len, old_entry.flags,
                    packfile.frame_crc(frame),
                )
                segment.entries.append(entry)
                new_located[key] = (segment, entry)
                copied += len(frame)
                if segment.size >= self.segment_bytes:
                    self._seal(segment)
                    self._active = None
            if self._active is not None:
                self._active.handle.flush()
                self._seal(self._active)
                self._active = None
            self._located = new_located
            for segment in old_segments:
                if segment.mm is not None:
                    self._mapped_bytes -= len(segment.mm)
                self._retired.append(segment)
                try:
                    os.unlink(segment.path)
                except OSError:
                    pass
            after = sum(segment.size for segment in self._segments.values())
            self.segment_compactions += 1
            self.compaction_bytes_written += copied
            self.reclaimable_bytes = 0
            self.dead_entries = 0
            self._release_retired_locked()
            return max(0, before - after)

    def release_retired(self) -> int:
        """Close retired segment mappings no longer pinned by views.

        Zero-copy fetches hand out ``memoryview`` slices over segment
        mmaps; a compaction that races such a view keeps the old
        mapping retired instead of closing it.  This sweeps the
        retired list and closes every mapping whose views have been
        released, returning how many segments were freed.  Segments
        still pinned stay retired for the next sweep (or
        :meth:`close`).
        """
        with self._lock:
            return self._release_retired_locked()

    def _release_retired_locked(self) -> int:
        if not self._retired:
            return 0
        kept: List[_Segment] = []
        released = 0
        for segment in self._retired:
            if segment.try_close():
                released += 1
            else:
                kept.append(segment)
        self._retired = kept
        self.retired_releases += released
        return released

    def flush(self) -> None:
        """Seal the active segment so its footer index reaches disk."""
        with self._lock:
            if self._active is not None:
                self._seal(self._active)
                self._active = None

    # -- Queries --------------------------------------------------------------------

    def contains(self, kind: str, name: str) -> bool:
        return (kind, name) in self._known

    def names(self, kind: str) -> List[str]:
        """Names of the live pools of one kind (a snapshot)."""
        with self._lock:
            return [name for known, name in self._known if known == kind]

    def stored_size(self, kind: str, name: str) -> int:
        """Raw (uncompressed) size of one pool."""
        return self._known.get((kind, name), 0)

    def total_bytes(self) -> int:
        """Total raw bytes of live pools."""
        return sum(self._known.values())

    def mapped_bytes(self) -> int:
        """Bytes currently memory-mapped from sealed segments."""
        return self._mapped_bytes

    def segment_count(self) -> int:
        return len(self._segments)

    def io_stats(self) -> Dict[str, int]:
        """Counter snapshot for benchmarks and build summaries."""
        with self._lock:
            return {
                "stores": self.stores,
                "store_skips": self.store_skips,
                "fetches": self.fetches,
                "batch_fetches": self.batch_fetches,
                "bytes_written": self.bytes_written,
                "bytes_read": self.bytes_read,
                "index_bytes_written": self.index_bytes_written,
                "index_bytes_read": self.index_bytes_read,
                "reclaimable_bytes": self.reclaimable_bytes,
                "dead_entries": self.dead_entries,
                "mapped_bytes": self._mapped_bytes,
                "segments": len(self._segments),
                "segment_compactions": self.segment_compactions,
                "compaction_bytes_written": self.compaction_bytes_written,
                "retired_segments": len(self._retired),
                "retired_releases": self.retired_releases,
            }

    def __len__(self) -> int:
        return len(self._known)

    # -- Lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Release mappings/handles; remove owned on-disk state."""
        if self._directory is not None and self._owned_directory is None:
            # A caller-owned directory will be reopened later: seal the
            # active segment so reindex reads one footer instead of
            # scan-recovering the frames.
            self.flush()
        with self._lock:
            for segment in list(self._segments.values()) + self._retired:
                segment.close()
            self._segments.clear()
            self._retired = []
            self._active = None
            self._located.clear()
            self._mapped_bytes = 0
            self._mem.clear()
            self._known.clear()
        if self._owned_directory and os.path.isdir(self._owned_directory):
            for entry in os.listdir(self._owned_directory):
                try:
                    os.unlink(os.path.join(self._owned_directory, entry))
                except OSError:
                    pass
            try:
                os.rmdir(self._owned_directory)
            except OSError:
                pass
            self._owned_directory = None

    def __enter__(self) -> "Repository":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class OverlayRepository(Repository):
    """A private write layer over a shared read-only base repository.

    Partition workers share the link-wide repository for *reads* (pools
    the serial WPA phases offloaded) but must not mutate it -- their own
    evictions land in a private in-memory layer instead.  Lookups
    consult the overlay first, then fall through to the base; discards
    only ever touch the overlay (a masked base pool simply becomes
    visible again, which is correct: the base copy is still the pool's
    last globally published content).
    """

    def __init__(self, base: Repository) -> None:
        super().__init__(in_memory=True)
        self._base = base
        # One intern pool per *link*, not per worker: partition
        # workers decode the same shared-context strings, and the
        # whole point is decoding each exactly once.  Dict get/set
        # races under the GIL are benign (worst case a duplicate
        # insert of an equal string).  Farm workers overlay adapter
        # bases (CAS-backed) that carry no pool of their own; the
        # overlay then keeps its private one.
        self.intern = getattr(base, "intern", self.intern)

    def fetch(self, kind: str, name: str) -> bytes:
        with self._lock:
            mine = (kind, name) in self._known
        if mine:
            return super().fetch(kind, name)
        return self._base.fetch(kind, name)

    def fetch_many(
        self, keys: Iterable[Tuple[str, str]]
    ) -> Dict[Tuple[str, str], bytes]:
        keys = list(keys)
        with self._lock:
            mine = [key for key in keys if key in self._known]
        theirs = [key for key in keys if key not in set(mine)]
        out = super().fetch_many(mine) if mine else {}
        if theirs:
            out.update(self._base.fetch_many(theirs))
        return out

    def contains(self, kind: str, name: str) -> bool:
        return super().contains(kind, name) or self._base.contains(kind, name)

    def stored_size(self, kind: str, name: str) -> int:
        if super().contains(kind, name):
            return super().stored_size(kind, name)
        return self._base.stored_size(kind, name)
