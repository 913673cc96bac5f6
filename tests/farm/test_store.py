"""The shared artifact store: CAS server loop + client, one layer."""

import socket
import threading

import pytest

from repro.farm.protocol import read_message, write_message
from repro.farm.store import (
    CAS_KIND,
    CasStore,
    StoreClient,
    StoreError,
    cas_key,
    serve_store,
)
from repro.naim.pools import KIND_IR
from repro.naim.repository import Repository
from repro.part.wire import CasBackedRepository


@pytest.fixture()
def served_stream(tmp_path):
    """A pack repository's CAS served over a socketpair; yields the
    client end of the stream and the backing Repository."""
    repository = Repository(directory=str(tmp_path / "repo"))
    server_sock, client_sock = socket.socketpair()
    server_stream = server_sock.makefile("rwb")
    client_stream = client_sock.makefile("rwb")
    thread = threading.Thread(
        target=serve_store, args=(server_stream, CasStore(repository)),
        daemon=True,
    )
    thread.start()
    try:
        yield client_stream, repository
    finally:
        client_stream.close()
        client_sock.close()
        thread.join(timeout=5.0)
        server_stream.close()
        server_sock.close()
        repository.close()


@pytest.fixture()
def served_repo(served_stream):
    """A StoreClient on ``served_stream`` and the backing Repository."""
    stream, repository = served_stream
    return StoreClient(stream), repository


class TestStoreWire:
    def test_store_then_fetch_roundtrip(self, served_repo):
        client, local = served_repo
        key = client.put_blob(b"payload bytes")
        assert local.fetch(CAS_KIND, key) == b"payload bytes"
        assert client.get_blob(key) == b"payload bytes"

    def test_fetch_reads_serverside_entries(self, served_repo):
        client, local = served_repo
        local.store(CAS_KIND, cas_key(b"\x01\x02\x03"), b"\x01\x02\x03")
        assert client.get_blob(cas_key(b"\x01\x02\x03")) == b"\x01\x02\x03"

    def test_missing_blob_raises_keyerror_not_disconnect(self, served_repo):
        client, _ = served_repo
        with pytest.raises(KeyError):
            client.get_blob(cas_key(b"nothere"))
        # The stream survived the miss: the next request still works.
        key = client.put_blob(b"y")
        assert client.get_blob(key) == b"y"

    def test_contains(self, served_stream):
        stream, local = served_stream
        key = cas_key(b"v")
        write_message(stream, {"op": "has", "key": key})
        assert read_message(stream) == {"ok": True, "has": False}
        local.store(CAS_KIND, key, b"v")
        write_message(stream, {"op": "has", "key": key})
        assert read_message(stream) == {"ok": True, "has": True}

    def test_unknown_op_is_answered(self, served_stream):
        stream, _ = served_stream
        write_message(stream, {"op": "stats"})
        answer = read_message(stream)
        assert not answer["ok"] and "unknown store op" in answer["error"]
        client = StoreClient(stream)
        assert client.get_blob(client.put_blob(b"still up")) == b"still up"

    def test_fetch_many_batches(self, served_repo):
        client, local = served_repo
        keys = []
        for i in range(5):
            data = b"v%d" % i
            keys.append(cas_key(data))
            local.store(CAS_KIND, keys[-1], data)
        out = client.get_blobs(keys + [cas_key(b"absent")])
        assert out[keys[3]] == b"v3"
        assert len(out) == 5

    def test_fetch_caches(self, served_repo):
        client, _ = served_repo
        key = client.put_blob(b"v")
        client.get_blob(key)
        hits_before = client.cache_hits
        client.get_blob(key)
        assert client.cache_hits == hits_before + 1

    def test_closed_stream_raises(self, tmp_path):
        server_sock, client_sock = socket.socketpair()
        stream = client_sock.makefile("rwb")
        server_sock.close()
        client = StoreClient(stream)
        with pytest.raises(StoreError):
            client.get_blob(cas_key(b"k"))
        try:
            stream.close()  # flushes into the dead pipe
        except OSError:
            pass
        client_sock.close()

    def test_threaded_clients_serialize(self, served_repo):
        client, _ = served_repo
        errors = []

        def hammer(i):
            try:
                for j in range(10):
                    data = ("t%d-%d" % (i, j)).encode()
                    assert client.get_blob(client.put_blob(data)) == data
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20.0)
        assert not errors


class TestStoreClient:
    def test_put_get_roundtrip(self, served_repo):
        store, _ = served_repo
        key = store.put_blob(b"hello farm")
        assert key == cas_key(b"hello farm")
        assert store.get_blob(key) == b"hello farm"

    def test_identical_put_skips_upload(self, served_repo):
        store, _ = served_repo
        store.put_blob(b"dedup me")
        store.put_blob(b"dedup me")
        assert store.puts == 1
        assert store.put_skips == 1

    def test_put_skips_blob_another_client_stored(self, served_repo):
        store, local = served_repo
        data = b"already there"
        local.store(CAS_KIND, cas_key(data), data)
        store.put_blob(data)
        assert store.puts == 0 and store.put_skips == 1

    def test_get_blobs_batch_and_cache(self, served_repo):
        store, _ = served_repo
        keys = [store.put_blob(b"blob %d" % i) for i in range(4)]
        out = store.get_blobs(keys)
        assert out[keys[2]] == b"blob 2"
        hits_before = store.cache_hits
        store.get_blobs(keys)  # second round is all cache
        assert store.cache_hits >= hits_before + 4

    def test_corrupt_blob_detected(self, served_repo):
        store, local = served_repo
        key = cas_key(b"expected")
        local.store(CAS_KIND, key, b"tampered")
        with pytest.raises(ValueError, match="corrupt"):
            store.get_blob(key)

    def test_a_batch_read_checks_every_hash(self, served_repo):
        store, local = served_repo
        key = cas_key(b"expected")
        local.store(CAS_KIND, key, b"tampered")
        with pytest.raises(ValueError, match="corrupt"):
            store.get_blobs([key])
        # Nothing was cached, so the single read goes to the store and
        # fails the same check.
        with pytest.raises(ValueError, match="corrupt"):
            store.get_blob(key)
        assert store.stats()["cache_bytes"] == 0 and store.gets == 0

    def test_cache_bounded(self, served_stream):
        store = StoreClient(served_stream[0], cache_bytes=64)
        for i in range(8):
            store.put_blob(b"x" * 32 + b"%d" % i)
        assert store.stats()["cache_bytes"] <= 64 + 33


class TestCasBackedRepository:
    def test_reads_resolve_through_mapping(self, served_repo):
        store, _ = served_repo
        key = store.put_blob(b"compact ir bytes")
        repo = CasBackedRepository(store, {(KIND_IR, "main"): key})
        assert repo.contains(KIND_IR, "main")
        assert repo.fetch(KIND_IR, "main") == b"compact ir bytes"
        assert repo.stored_size(KIND_IR, "main") == 16

    def test_unmapped_name_raises(self, served_repo):
        store, _ = served_repo
        repo = CasBackedRepository(store, {})
        assert not repo.contains(KIND_IR, "ghost")
        with pytest.raises(KeyError):
            repo.fetch(KIND_IR, "ghost")

    def test_fetch_many_skips_unmapped(self, served_repo):
        store, _ = served_repo
        key = store.put_blob(b"only one")
        repo = CasBackedRepository(store, {(KIND_IR, "a"): key})
        out = repo.fetch_many([(KIND_IR, "a"), (KIND_IR, "b")])
        assert out == {(KIND_IR, "a"): b"only one"}
