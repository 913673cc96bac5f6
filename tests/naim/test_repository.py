"""Unit tests for the on-disk repository."""

import os

import pytest

from repro.naim.repository import Repository


def write_foreign_file(directory, filename, data):
    """A file the repository did not write."""
    with open(os.path.join(str(directory), filename), "wb") as handle:
        handle.write(data)


class TestInMemory:
    def test_store_fetch(self):
        repo = Repository(in_memory=True)
        repo.store("ir", "f", b"abc")
        assert repo.fetch("ir", "f") == b"abc"
        assert repo.contains("ir", "f")
        assert repo.stored_size("ir", "f") == 3

    def test_missing_key(self):
        repo = Repository(in_memory=True)
        with pytest.raises(KeyError):
            repo.fetch("ir", "ghost")

    def test_overwrite(self):
        repo = Repository(in_memory=True)
        repo.store("ir", "f", b"old")
        repo.store("ir", "f", b"newer")
        assert repo.fetch("ir", "f") == b"newer"
        assert len(repo) == 1

    def test_counters(self):
        repo = Repository(in_memory=True)
        repo.store("ir", "f", b"12345")
        repo.fetch("ir", "f")
        assert repo.stores == 1
        assert repo.fetches == 1
        assert repo.bytes_written == 5
        assert repo.bytes_read == 5
        assert repo.total_bytes() == 5


class TestOnDisk:
    def test_round_trip(self, tmp_path):
        repo = Repository(directory=str(tmp_path))
        repo.store("ir", "mod::fn", b"\x00\x01\x02")
        assert repo.fetch("ir", "mod::fn") == b"\x00\x01\x02"
        files = os.listdir(str(tmp_path))
        assert len(files) == 1 and files[0].endswith(".pack")

    def test_kinds_are_disjoint(self, tmp_path):
        repo = Repository(directory=str(tmp_path))
        repo.store("ir", "x", b"IR")
        repo.store("symtab", "x", b"ST")
        assert repo.fetch("ir", "x") == b"IR"
        assert repo.fetch("symtab", "x") == b"ST"

    def test_names_lists_the_live_pools_of_one_kind(self, tmp_path):
        repo = Repository(directory=str(tmp_path))
        repo.store("ir", "x", b"IR")
        repo.store("ir", "y", b"IR")
        repo.store("symtab", "x", b"ST")
        repo.discard("ir", "y")
        assert repo.names("ir") == ["x"]
        assert repo.names("symtab") == ["x"]
        assert repo.names("mach") == []

    def test_owned_tempdir_cleanup(self):
        repo = Repository()
        repo.store("ir", "f", b"data")
        directory = repo._directory
        assert directory is not None and os.path.isdir(directory)
        repo.close()
        assert not os.path.isdir(directory)

    def test_context_manager(self):
        with Repository() as repo:
            repo.store("ir", "f", b"x")
            directory = repo._directory
        assert not os.path.isdir(directory)

    def test_special_characters_in_names(self, tmp_path):
        repo = Repository(directory=str(tmp_path))
        repo.store("ir", "a::b::cl0", b"clone")
        assert repo.fetch("ir", "a::b::cl0") == b"clone"


class TestDiscardAndReindex:
    def test_discard(self, tmp_path):
        repo = Repository(directory=str(tmp_path))
        repo.store("ir", "f", b"data")
        assert repo.discard("ir", "f")
        assert not repo.contains("ir", "f")
        # Pack segments keep the dead frame on disk until compaction,
        # but the space is surfaced as reclaimable.
        assert repo.reclaimable_bytes > 0
        assert repo.dead_entries == 1
        assert not repo.discard("ir", "f")  # second discard is a no-op

    def test_discard_in_memory(self):
        repo = Repository(in_memory=True)
        repo.store("ir", "f", b"data")
        assert repo.discard("ir", "f")
        with pytest.raises(KeyError):
            repo.fetch("ir", "f")

    def test_reindex_adopts_existing_files(self, tmp_path):
        writer = Repository(directory=str(tmp_path))
        writer.store("ir", "mod::fn", b"payload")
        writer.store("mach", "deadbeef", b"blob")

        reader = Repository(directory=str(tmp_path))
        assert not reader.contains("ir", "mod::fn")  # not indexed yet
        assert reader.reindex() == 2
        assert reader.fetch("ir", "mod::fn") == b"payload"
        assert reader.fetch("mach", "deadbeef") == b"blob"

    def test_reindex_leaves_foreign_files_alone(self, tmp_path):
        foreign = ["README.pool", "ir__x_00.pool", "notes.txt"]
        for name in foreign:
            write_foreign_file(tmp_path, name, b"not ours")
        repo = Repository(directory=str(tmp_path))
        assert repo.reindex() == 0
        assert len(repo) == 0 and not repo.reindex_errors
        assert sorted(os.listdir(str(tmp_path))) == foreign

    def test_a_pre_pack_pool_file_is_a_foreign_file(self, tmp_path):
        # The one-file-per-pool layout from before the pack format is
        # not read: such a directory relinks from scratch.
        write_foreign_file(tmp_path, "ir__f.pool", b"data")
        repo = Repository(directory=str(tmp_path))
        assert repo.reindex(strict=True) == 0
        assert not repo.contains("ir", "f") and not repo.reindex_errors
        assert os.listdir(str(tmp_path)) == ["ir__f.pool"]


class TestFetchMany:
    def test_batch_returns_present_keys(self):
        repo = Repository(in_memory=True)
        repo.store("ir", "a", b"aa")
        repo.store("ir", "b", b"bbb")
        out = repo.fetch_many([("ir", "a"), ("ir", "b"), ("ir", "ghost")])
        assert out == {("ir", "a"): b"aa", ("ir", "b"): b"bbb"}

    def test_batch_counters(self):
        repo = Repository(in_memory=True)
        repo.store("ir", "a", b"aa")
        repo.store("ir", "b", b"bbb")
        repo.fetch_many([("ir", "a"), ("ir", "b")])
        assert repo.batch_fetches == 1
        assert repo.fetches == 2
        assert repo.bytes_read == 5

    def test_batch_on_disk(self, tmp_path):
        repo = Repository(directory=str(tmp_path))
        repo.store("ir", "x:y", b"data")
        repo.store("ir", "z", b"more")
        out = repo.fetch_many([("ir", "x:y"), ("ir", "z")])
        assert out[("ir", "x:y")] == b"data"
        assert out[("ir", "z")] == b"more"


class TestOverlay:
    def test_reads_fall_through_to_base(self):
        from repro.naim.repository import OverlayRepository

        base = Repository(in_memory=True)
        base.store("ir", "f", b"base")
        overlay = OverlayRepository(base)
        assert overlay.contains("ir", "f")
        assert overlay.fetch("ir", "f") == b"base"
        assert overlay.stored_size("ir", "f") == 4

    def test_writes_stay_private(self):
        from repro.naim.repository import OverlayRepository

        base = Repository(in_memory=True)
        overlay = OverlayRepository(base)
        overlay.store("ir", "f", b"private")
        assert overlay.fetch("ir", "f") == b"private"
        assert not base.contains("ir", "f")

    def test_overlay_masks_base(self):
        from repro.naim.repository import OverlayRepository

        base = Repository(in_memory=True)
        base.store("ir", "f", b"old")
        overlay = OverlayRepository(base)
        overlay.store("ir", "f", b"new")
        assert overlay.fetch("ir", "f") == b"new"
        # Discard only unmasks: the base copy becomes visible again.
        overlay.discard("ir", "f")
        assert overlay.fetch("ir", "f") == b"old"
        assert base.fetch("ir", "f") == b"old"

    def test_fetch_many_splits_layers(self):
        from repro.naim.repository import OverlayRepository

        base = Repository(in_memory=True)
        base.store("ir", "b", b"from-base")
        overlay = OverlayRepository(base)
        overlay.store("ir", "o", b"from-overlay")
        out = overlay.fetch_many([("ir", "b"), ("ir", "o"), ("ir", "nope")])
        assert out == {
            ("ir", "b"): b"from-base",
            ("ir", "o"): b"from-overlay",
        }
