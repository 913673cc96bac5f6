"""Pack-segment file format for the NAIM repository.

Pools are appended to large *segment* files instead of one tiny file
per pool -- the I/O pattern GCC's LTO work identified as dominant at
link time (thousands of small opens) collapses into sequential appends
and mmap'd reads.  A segment is:

* an 8-byte header magic identifying the format version;
* a run of framed entries (``ENTRY_MAGIC``, flags, kind/name lengths,
  raw and stored payload lengths, a CRC-32 of the stored payload,
  then kind, name and payload bytes);
* once *sealed*, a footer: the segment's entry index as compact JSON,
  followed by an 8-byte trailer (footer length + ``FOOTER_MAGIC``).

The footer makes re-opening a cold repository one read per segment;
the per-entry framing makes the footer *redundant* -- a segment whose
footer is missing (crash before seal) or corrupt is recovered by
scanning the frames, verifying each CRC, and stopping cleanly at the
first sign of damage.  Entries above a configured size threshold are
zlib-compressed, recorded by a per-entry flag so small pools stay raw.

This module is pure format: framing, footers, scanning.  Policy
(index management, mmap lifetime, locking, compaction) lives in
:mod:`repro.naim.repository`.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import List, Optional, Tuple

#: Segment header magic; bump the digit on incompatible changes.
SEGMENT_MAGIC = b"NAIMPK1\n"
ENTRY_MAGIC = b"NPE1"
FOOTER_MAGIC = b"NPF1"

#: Entry frame: magic, flags, kind_len, name_len, raw_len, stored_len,
#: crc32(stored payload).
_FRAME = struct.Struct("<4sBHHIII")
FRAME_BYTES = _FRAME.size
#: Footer trailer: footer byte length + magic, at the very end of a
#: sealed segment.
_TRAILER = struct.Struct("<I4s")
TRAILER_BYTES = _TRAILER.size

#: Entry flags.
FLAG_COMPRESSED = 0x01


class PackFormatError(Exception):
    """A segment (or a span inside one) is not valid pack data."""


class PackEntry:
    """One entry's location and framing metadata inside a segment."""

    __slots__ = ("kind", "name", "offset", "payload_offset", "raw_len",
                 "stored_len", "flags", "crc")

    def __init__(self, kind: str, name: str, offset: int,
                 payload_offset: int, raw_len: int, stored_len: int,
                 flags: int, crc: Optional[int] = None) -> None:
        self.kind = kind
        self.name = name
        #: Offset of the entry frame within the segment file.
        self.offset = offset
        #: Offset of the stored payload bytes within the segment file.
        self.payload_offset = payload_offset
        self.raw_len = raw_len
        self.stored_len = stored_len
        self.flags = flags
        #: CRC-32 of the stored payload, as its frame records it (None
        #: until read: footers do not repeat it).
        self.crc = crc

    @property
    def compressed(self) -> bool:
        return bool(self.flags & FLAG_COMPRESSED)

    @property
    def frame_len(self) -> int:
        """Total on-disk bytes of the entry (frame + names + payload)."""
        return (self.payload_offset - self.offset) + self.stored_len

    def __repr__(self) -> str:
        return "<PackEntry %s:%s @%d %d->%d%s>" % (
            self.kind, self.name, self.offset, self.raw_len,
            self.stored_len, " z" if self.compressed else "",
        )


# -- Encoding -----------------------------------------------------------------------


def encode_payload(data: bytes, compress_level: int,
                   compress_min_bytes: int) -> Tuple[bytes, int]:
    """(stored payload, flags) for ``data`` under the compression policy.

    Compression only sticks when it actually shrinks the payload, so a
    pre-compressed or tiny pool never pays decode cost for nothing.
    """
    if compress_level > 0 and len(data) >= compress_min_bytes:
        packed = zlib.compress(data, compress_level)
        if len(packed) < len(data):
            return packed, FLAG_COMPRESSED
    return data, 0


def decode_payload(stored, flags: int) -> bytes:
    """Invert :func:`encode_payload`; accepts any bytes-like view."""
    if flags & FLAG_COMPRESSED:
        return zlib.decompress(stored)
    return bytes(stored)


def decode_payload_view(stored, flags: int):
    """Zero-copy variant of :func:`decode_payload`.

    Uncompressed entries come back *as stored* -- for a sealed segment
    that is a ``memoryview`` slice over the segment mmap, with no byte
    copy.  The view pins the mapping: segment retirement keeps retired
    mmaps alive until every exported view is released (see
    ``Repository.release_retired``), so a live view never dangles.
    Compressed entries decompress into fresh ``bytes`` as before.
    """
    if flags & FLAG_COMPRESSED:
        return zlib.decompress(stored)
    return stored


def encode_entry(kind: str, name: str, stored: bytes, raw_len: int,
                 flags: int) -> bytes:
    """The full on-disk frame for one entry."""
    kind_b = kind.encode("utf-8")
    name_b = name.encode("utf-8")
    if len(kind_b) > 0xFFFF or len(name_b) > 0xFFFF:
        raise PackFormatError("kind/name too long for pack frame")
    header = _FRAME.pack(ENTRY_MAGIC, flags, len(kind_b), len(name_b),
                         raw_len, len(stored), zlib.crc32(stored))
    return header + kind_b + name_b + stored


def decode_entry_at(buf, pos: int, verify_crc: bool = True,
                    size: Optional[int] = None) -> Tuple[PackEntry, int]:
    """Decode the entry frame at ``pos``; returns (entry, next position).

    ``buf`` is any random-access bytes-like (bytes, mmap).  Raises
    :class:`PackFormatError` on bad magic, out-of-bounds lengths or a
    CRC mismatch -- the caller treats that position as the end of the
    recoverable prefix.
    """
    end = len(buf) if size is None else size
    if pos + FRAME_BYTES > end:
        raise PackFormatError("truncated entry frame at offset %d" % pos)
    magic, flags, kind_len, name_len, raw_len, stored_len, crc = (
        _FRAME.unpack(bytes(buf[pos:pos + FRAME_BYTES]))
    )
    if magic != ENTRY_MAGIC:
        raise PackFormatError("bad entry magic at offset %d" % pos)
    names_start = pos + FRAME_BYTES
    payload_offset = names_start + kind_len + name_len
    next_pos = payload_offset + stored_len
    if next_pos > end:
        raise PackFormatError("entry at offset %d overruns segment" % pos)
    try:
        kind = bytes(buf[names_start:names_start + kind_len]).decode("utf-8")
        name = bytes(
            buf[names_start + kind_len:payload_offset]
        ).decode("utf-8")
    except UnicodeDecodeError:
        raise PackFormatError("undecodable entry name at offset %d" % pos)
    if verify_crc and zlib.crc32(
        bytes(buf[payload_offset:payload_offset + stored_len])
    ) != crc:
        raise PackFormatError(
            "payload CRC mismatch for %s:%s at offset %d" % (kind, name, pos)
        )
    entry = PackEntry(kind, name, pos, payload_offset, raw_len,
                      stored_len, flags, crc)
    return entry, next_pos


def frame_crc(header) -> int:
    """The payload CRC-32 an entry frame's header records."""
    return _FRAME.unpack(bytes(header[:FRAME_BYTES]))[6]


# -- Footers ------------------------------------------------------------------------


def encode_footer(entries: List[PackEntry]) -> bytes:
    """Footer + trailer bytes for a segment being sealed."""
    index = [
        [e.kind, e.name, e.offset, e.payload_offset, e.raw_len,
         e.stored_len, e.flags]
        for e in entries
    ]
    body = json.dumps(index, separators=(",", ":")).encode("utf-8")
    return body + _TRAILER.pack(len(body), FOOTER_MAGIC)


def read_footer(buf, size: Optional[int] = None) -> Optional[List[PackEntry]]:
    """Parse a sealed segment's footer; None when absent or damaged.

    The caller falls back to :func:`scan_segment` on None -- a missing
    footer is an expected state (crash before seal), not corruption.
    """
    end = len(buf) if size is None else size
    if end < len(SEGMENT_MAGIC) + TRAILER_BYTES:
        return None
    body_len, magic = _TRAILER.unpack(bytes(buf[end - TRAILER_BYTES:end]))
    if magic != FOOTER_MAGIC:
        return None
    body_start = end - TRAILER_BYTES - body_len
    if body_start < len(SEGMENT_MAGIC):
        return None
    try:
        index = json.loads(bytes(buf[body_start:end - TRAILER_BYTES]))
        entries = []
        for kind, name, offset, payload_offset, raw_len, stored_len, flags \
                in index:
            entries.append(PackEntry(kind, name, offset, payload_offset,
                                     raw_len, stored_len, flags))
        return entries
    except (ValueError, TypeError):
        return None


def footer_span(buf, size: Optional[int] = None) -> int:
    """Bytes the footer + trailer occupy (0 when no valid trailer)."""
    end = len(buf) if size is None else size
    if end < TRAILER_BYTES:
        return 0
    body_len, magic = _TRAILER.unpack(bytes(buf[end - TRAILER_BYTES:end]))
    if magic != FOOTER_MAGIC:
        return 0
    return TRAILER_BYTES + body_len


# -- Scanning -----------------------------------------------------------------------


def check_header(buf, size: Optional[int] = None) -> bool:
    end = len(buf) if size is None else size
    return (end >= len(SEGMENT_MAGIC)
            and bytes(buf[:len(SEGMENT_MAGIC)]) == SEGMENT_MAGIC)


def scan_segment(buf, size: Optional[int] = None):
    """Walk entry frames from the header; the recovery path.

    Returns ``(entries, error)``: every CRC-verified entry up to the
    first damaged frame, and a description of the damage (None for a
    clean scan).  Reaching the footer trailer, or exact end-of-file,
    is a clean stop; anything else -- bad magic, an overrun, a CRC
    mismatch -- truncates recovery at that point.
    """
    end = len(buf) if size is None else size
    if not check_header(buf, size=end):
        return [], "bad segment header magic"
    scan_end = end - footer_span(buf, size=end)
    entries: List[PackEntry] = []
    pos = len(SEGMENT_MAGIC)
    while pos < scan_end:
        try:
            entry, pos = decode_entry_at(buf, pos, size=scan_end)
        except PackFormatError as exc:
            return entries, str(exc)
        entries.append(entry)
    return entries, None
