"""Pack-segment format and repository tests.

Covers the properties the pack layout must hold for the rest of the
system to trust it: random payloads round-trip bit-exactly with
compression on or off and across segment rollover; concurrent
``fetch_many`` against a storing thread stays consistent (and the byte
counters stay exact); and damaged on-disk state -- a truncated footer,
a corrupt payload -- degrades to the CRC-verified prefix instead of
wrong answers.
"""

import os
import random
import threading

import pytest

from repro.naim import packfile
from repro.naim.repository import Repository, RepositoryError


def _random_blobs(seed, count, max_len=4096):
    rng = random.Random(seed)
    blobs = {}
    for i in range(count):
        name = "r%03d" % i
        length = rng.randrange(0, max_len)
        if rng.random() < 0.4:
            # Compressible: repeated structure like real pool bytes.
            data = (b"%dabcdef" % i) * (length // 8 + 1)
            data = data[:length]
        else:
            data = bytes(rng.getrandbits(8) for _ in range(length))
        blobs[("ir", name)] = data
    return blobs


class TestFrameLayer:
    def test_payload_roundtrip_levels(self):
        data = b"the same eight bytes " * 64
        for level in (0, 1, 6, 9):
            stored, flags = packfile.encode_payload(data, level, 16)
            assert packfile.decode_payload(stored, flags) == data
            if level == 0:
                assert flags == 0

    def test_small_payload_stays_raw(self):
        stored, flags = packfile.encode_payload(b"tiny" * 4, 9, 512)
        assert flags == 0
        assert stored == b"tiny" * 4

    def test_incompressible_payload_stays_raw(self):
        import hashlib

        # A SHA-256 chain is deterministic and incompressible.
        chunks, digest = [], b"seed"
        for _ in range(64):
            digest = hashlib.sha256(digest).digest()
            chunks.append(digest)
        data = b"".join(chunks)
        stored, flags = packfile.encode_payload(data, 9, 16)
        assert flags == 0
        assert stored == data

    def test_entry_roundtrip(self):
        frame = packfile.encode_entry("ir", "mod::fn", b"payload", 7, 0)
        buf = packfile.SEGMENT_MAGIC + frame
        entry, end = packfile.decode_entry_at(buf, len(packfile.SEGMENT_MAGIC))
        assert (entry.kind, entry.name) == ("ir", "mod::fn")
        assert entry.raw_len == 7 and entry.stored_len == 7
        assert end == len(buf)

    def test_crc_detects_flip(self):
        frame = packfile.encode_entry("ir", "f", b"payload", 7, 0)
        buf = bytearray(packfile.SEGMENT_MAGIC + frame)
        buf[-3] ^= 0x40
        with pytest.raises(packfile.PackFormatError):
            packfile.decode_entry_at(bytes(buf), len(packfile.SEGMENT_MAGIC))


class TestRoundTripProperty:
    @pytest.mark.parametrize("compress_level", [0, 6])
    def test_random_blobs_roundtrip_with_rollover(self, tmp_path,
                                                  compress_level):
        """Many random payloads, tiny segments -> rollover mid-batch."""
        blobs = _random_blobs(seed=20260807 + compress_level, count=120)
        repo = Repository(
            directory=str(tmp_path),
            compress_level=compress_level,
            compress_min_bytes=64,
            segment_bytes=16 * 1024,
        )
        for (kind, name), data in blobs.items():
            repo.store(kind, name, data)
        assert repo.segment_count() > 1  # rollover actually happened
        for (kind, name), data in blobs.items():
            assert repo.fetch(kind, name) == data

        # A fresh process sees the same bytes through footer reindex.
        repo.flush()
        reader = Repository(directory=str(tmp_path))
        assert reader.reindex() == len(blobs)
        fetched = reader.fetch_many(list(blobs))
        assert fetched == blobs
        repo.close()

    def test_overwrites_land_on_latest(self, tmp_path):
        repo = Repository(directory=str(tmp_path), segment_bytes=4096)
        rng = random.Random(11)
        expect = {}
        for round_no in range(4):
            for i in range(30):
                data = bytes(rng.getrandbits(8)
                             for _ in range(rng.randrange(1, 512)))
                repo.store("ir", "r%02d" % i, data)
                expect[("ir", "r%02d" % i)] = data
        assert len(repo) == 30
        for (kind, name), data in expect.items():
            assert repo.fetch(kind, name) == data
        # Three superseded generations are dead weight.
        assert repo.dead_entries == 90
        assert repo.reclaimable_bytes > 0

    def test_compaction_preserves_content(self, tmp_path):
        repo = Repository(directory=str(tmp_path), segment_bytes=4096)
        blobs = _random_blobs(seed=3, count=60, max_len=512)
        for (kind, name), data in blobs.items():
            repo.store(kind, name, data)
        dropped = list(blobs)[::3]
        for kind, name in dropped:
            assert repo.discard(kind, name)
            del blobs[(kind, name)]
        freed = repo.compact_segments()
        assert freed > 0
        assert repo.reclaimable_bytes == 0 and repo.dead_entries == 0
        for (kind, name), data in blobs.items():
            assert repo.fetch(kind, name) == data
        for kind, name in dropped:
            assert not repo.contains(kind, name)

        # And the compacted directory reindexes cleanly.
        repo.flush()
        reader = Repository(directory=str(tmp_path))
        assert reader.reindex() == len(blobs)
        assert reader.reindex_errors == []

    def test_discard_survives_reopen(self, tmp_path):
        """Tombstone frames keep discards durable without a footer."""
        repo = Repository(directory=str(tmp_path))
        repo.store("ir", "keep", b"keep me")
        repo.store("ir", "drop", b"drop me")
        assert repo.discard("ir", "drop")
        # No flush: the reader must honour the tombstone from a scan.
        reader = Repository(directory=str(tmp_path))
        reader.reindex()
        assert reader.contains("ir", "keep")
        assert not reader.contains("ir", "drop")


class TestConcurrency:
    def test_fetch_many_vs_store(self, tmp_path):
        """Readers racing a writer: every fetched value is one the
        writer actually stored for that key, and the byte counters
        settle to exact totals."""
        repo = Repository(directory=str(tmp_path), segment_bytes=8192,
                          compress_min_bytes=64)
        keys = [("ir", "r%02d" % i) for i in range(16)]
        valid = {key: set() for key in keys}
        for key in keys:
            data = b"gen0-%s" % key[1].encode() * 8
            valid[key].add(data)
            repo.store(key[0], key[1], data)

        errors = []
        stop = threading.Event()

        def writer():
            rng = random.Random(99)
            for gen in range(1, 40):
                for key in keys:
                    data = (b"gen%d-%s-" % (gen, key[1].encode())
                            ) * rng.randrange(1, 24)
                    valid[key].add(data)
                    repo.store(key[0], key[1], data)
            stop.set()

        def reader():
            try:
                while not stop.is_set():
                    out = repo.fetch_many(keys)
                    for key, data in out.items():
                        if data not in valid[key]:
                            errors.append((key, data[:32]))
                            return
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = repo.io_stats()
        assert stats["fetches"] >= len(keys)
        assert stats["bytes_read"] > 0
        assert stats["bytes_written"] > 0

    def test_batch_counters_exact_single_thread(self, tmp_path):
        repo = Repository(directory=str(tmp_path), compress_level=0)
        repo.store("ir", "a", b"x" * 100)
        repo.store("ir", "b", b"y" * 50)
        repo.reset_counters()
        repo.fetch_many([("ir", "a"), ("ir", "b")])
        assert repo.fetches == 2
        assert repo.batch_fetches == 1
        assert repo.bytes_read == 150

    def test_index_io_counted_separately(self, tmp_path):
        repo = Repository(directory=str(tmp_path))
        repo.store("ir", "a", b"data" * 10)
        payload_written = repo.bytes_written
        repo.flush()  # footer write is index I/O, not payload I/O
        assert repo.bytes_written == payload_written
        assert repo.index_bytes_written > 0

        reader = Repository(directory=str(tmp_path))
        reader.reindex()
        assert reader.index_bytes_read > 0
        assert reader.bytes_read == 0  # no payloads touched yet


class TestRecovery:
    def _write_repo(self, tmp_path, count=20, seal=True):
        repo = Repository(directory=str(tmp_path), segment_bytes=1 << 30)
        blobs = _random_blobs(seed=5, count=count, max_len=256)
        for (kind, name), data in blobs.items():
            repo.store(kind, name, data)
        if seal:
            repo.close()  # seals: footer reaches disk
        # else: simulate a crash -- every append was flushed, but no
        # footer was ever written (close() would seal it).
        return blobs

    def _segment_path(self, tmp_path):
        names = [n for n in os.listdir(str(tmp_path)) if n.endswith(".pack")]
        assert len(names) == 1
        return os.path.join(str(tmp_path), names[0])

    def test_unsealed_segment_recovers_fully(self, tmp_path):
        blobs = self._write_repo(tmp_path, seal=False)
        reader = Repository(directory=str(tmp_path))
        assert reader.reindex() == len(blobs)
        assert reader.reindex_errors == []
        assert reader.fetch_many(list(blobs)) == blobs

    def test_truncated_footer_recovers_by_scan(self, tmp_path):
        blobs = self._write_repo(tmp_path, seal=True)
        path = self._segment_path(tmp_path)
        with open(path, "r+b") as handle:
            handle.seek(0, os.SEEK_END)
            handle.truncate(handle.tell() - 3)  # clip the trailer
        reader = Repository(directory=str(tmp_path))
        # Footer gone; every frame is intact, so everything comes back.
        assert reader.reindex() == len(blobs)
        assert reader.fetch_many(list(blobs)) == blobs

    def test_corrupt_payload_keeps_verified_prefix(self, tmp_path):
        self._write_repo(tmp_path, seal=False)
        path = self._segment_path(tmp_path)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.seek(size // 2)
            handle.write(b"\xff" * 16)
        reader = Repository(directory=str(tmp_path))
        recovered = reader.reindex()
        assert 0 < recovered < 20
        assert reader.reindex_errors  # damage was reported
        # Whatever was recovered reads back clean.
        for kind, name in list(reader._known):
            reader.fetch(kind, name)

    def test_strict_reindex_raises(self, tmp_path):
        self._write_repo(tmp_path, seal=False)
        path = self._segment_path(tmp_path)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.seek(size // 2)
            handle.write(b"\xff" * 16)
        reader = Repository(directory=str(tmp_path))
        with pytest.raises(RepositoryError):
            reader.reindex(strict=True)

    def test_bad_header_is_skipped(self, tmp_path):
        self._write_repo(tmp_path, seal=True)
        with open(os.path.join(str(tmp_path), "seg-99999.pack"),
                  "wb") as handle:
            handle.write(b"NOT A PACK FILE")
        reader = Repository(directory=str(tmp_path))
        assert reader.reindex() == 20
        assert any("header" in err for err in reader.reindex_errors)
