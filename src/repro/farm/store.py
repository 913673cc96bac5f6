"""The farm's content-addressed store: one layer, both ends.

Partition inputs and outcomes travel as blobs named by their SHA-256
and kept under NAIM kind ``"cas"`` in the coordinator's pack
repository.  A warm rebuild republishes byte-identical blobs, which
the store already holds, so nothing new is written: that skip *is*
the farm-wide deduplication.

* :class:`CasStore` -- the coordinator's side: ``has`` / ``put`` /
  ``get`` / ``get_many`` over the pack :class:`~repro.naim.repository.
  Repository`.  :class:`~repro.farm.coordinator.FarmDispatcher`
  publishes and reads through it directly.
* :func:`serve_store` -- the loop behind the ``store`` connection
  role: one NDJSON request per line (``has`` / ``put`` / ``get`` /
  ``many``), answered in order against a :class:`CasStore`.
* :class:`StoreClient` -- the worker's side of that stream, with a
  byte-bounded LRU (shared context blobs are fetched once per build,
  not once per partition) and ``has``-before-``put`` so unchanged
  blobs never cross the wire.  Every blob it reads is checked against
  its hash before it is cached or returned.

Binary payloads travel base64-encoded under ``_b64`` keys, exactly
like build images do (:mod:`.protocol`).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, Iterable

from .protocol import (
    ProtocolError,
    decode_bytes,
    encode_bytes,
    read_message,
    write_message,
)

#: NAIM pool kind under which CAS blobs live in the pack repository.
CAS_KIND = "cas"


def cas_key(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class StoreError(Exception):
    """The store answered with an error or its stream broke."""


class CasStore:
    """Hash-named blobs in one pack repository (the coordinator's)."""

    def __init__(self, repository) -> None:
        self.repository = repository

    def has(self, key: str) -> bool:
        return self.repository.contains(CAS_KIND, key)

    def put(self, data: bytes) -> str:
        """Store ``data`` unless its key is already held; returns the key."""
        key = cas_key(data)
        if not self.has(key):
            self.repository.store(CAS_KIND, key, data)
        return key

    def get(self, key: str) -> bytes:
        # Snapshot zero-copy views: callers keep these bytes, and they
        # must not pin the repository's segment mmaps.
        return bytes(self.repository.fetch(CAS_KIND, key))

    def get_many(self, keys: Iterable[str]) -> Dict[str, bytes]:
        """The held blobs among ``keys``; absent ones are left out."""
        found = self.repository.fetch_many(
            [(CAS_KIND, key) for key in keys]
        )
        return {key: bytes(data) for (_, key), data in found.items()}


def serve_store(stream, store: CasStore) -> None:
    """Answer store requests on ``stream`` until EOF.

    A request that fails (a missing blob, a damaged entry, an unknown
    op) gets a ``{"ok": false}`` answer and the connection lives on:
    a worker asking for a blob that is gone fails *that read*, not its
    whole session.  A line over the protocol's ``MAX_LINE_BYTES`` or
    one that is not JSON is answered, then the connection ends."""
    while True:
        try:
            message = read_message(stream)
        except ProtocolError as exc:
            _answer(stream, {"ok": False, "error": str(exc)})
            return
        if message is None:
            return
        try:
            answer = _dispatch(store, message)
        except Exception as exc:  # noqa: BLE001 - answer, don't die
            answer = {"ok": False,
                      "error": "%s: %s" % (type(exc).__name__, exc)}
        if not _answer(stream, answer):
            return


def _dispatch(store: CasStore, message: Dict) -> Dict:
    op = message.get("op")
    if op == "has":
        return {"ok": True, "has": store.has(str(message["key"]))}
    if op == "put":
        return {"ok": True,
                "key": store.put(decode_bytes(message["data_b64"]))}
    if op == "get":
        return {"ok": True,
                "data_b64": encode_bytes(store.get(str(message["key"])))}
    if op == "many":
        found = store.get_many(str(key) for key in message["keys"])
        return {"ok": True, "blobs": {
            key: encode_bytes(data) for key, data in found.items()
        }}
    return {"ok": False, "error": "unknown store op %r" % op}


def _answer(stream, message: Dict) -> bool:
    try:
        write_message(stream, message)
        return True
    except (OSError, ValueError, ProtocolError):
        return False


class StoreClient:
    """Hash-addressed get/put over one store connection it owns.

    One lock holds each request/answer pair together (and the cache
    with it): the worker's loader prefetch thread reads through the
    same client as the partition it runs ahead of."""

    def __init__(self, stream, cache_bytes: int = 64 * 1024 * 1024) -> None:
        self._stream = stream
        self._lock = threading.Lock()
        self._cache: "OrderedDict[str, bytes]" = OrderedDict()
        self._cache_bytes = 0
        self._cache_limit = cache_bytes
        self.puts = 0
        self.put_skips = 0
        self.gets = 0
        self.cache_hits = 0

    # -- Wire and cache (lock held) ---------------------------------------------

    def _roundtrip(self, message: Dict) -> Dict:
        try:
            write_message(self._stream, message)
            answer = read_message(self._stream)
        except (OSError, ValueError, ProtocolError) as exc:
            raise StoreError("store stream failed: %s" % exc)
        if answer is None:
            raise StoreError("store stream closed")
        return answer

    def _cached(self, key: str):
        data = self._cache.get(key)
        if data is not None:
            self._cache.move_to_end(key)
            self.cache_hits += 1
        return data

    def _remember(self, key: str, data: bytes) -> None:
        if key in self._cache:
            self._cache.move_to_end(key)
            return
        self._cache[key] = data
        self._cache_bytes += len(data)
        while self._cache_bytes > self._cache_limit and self._cache:
            _, evicted = self._cache.popitem(last=False)
            self._cache_bytes -= len(evicted)

    def _admit(self, key: str, payload: str) -> bytes:
        """The one way a fetched blob enters the client: decoded,
        checked against its name, then cached."""
        data = decode_bytes(payload)
        if cas_key(data) != key:
            raise ValueError("store returned corrupt blob for %s" % key[:12])
        self.gets += 1
        self._remember(key, data)
        return data

    # -- Blobs ------------------------------------------------------------------

    def put_blob(self, data: bytes) -> str:
        """Publish bytes; returns their content hash.

        A blob the store already holds (warm rebuild, another worker
        got there first) skips the payload upload entirely."""
        key = cas_key(data)
        with self._lock:
            if (key in self._cache
                    or self._roundtrip({"op": "has", "key": key}).get("has")):
                self.put_skips += 1
            else:
                answer = self._roundtrip(
                    {"op": "put", "data_b64": encode_bytes(data)}
                )
                if answer.get("key") != key:
                    raise StoreError(answer.get("error", "store put failed"))
                self.puts += 1
            self._remember(key, data)
        return key

    def get_blob(self, key: str) -> bytes:
        with self._lock:
            data = self._cached(key)
            if data is not None:
                return data
            answer = self._roundtrip({"op": "get", "key": key})
            if not answer.get("ok"):
                raise KeyError(answer.get("error", "no blob %s" % key[:12]))
            return self._admit(key, answer["data_b64"])

    def get_blobs(self, keys: Iterable[str]) -> Dict[str, bytes]:
        """Batch fetch (one round trip for the cache misses); blobs
        the store does not hold are left out."""
        out: Dict[str, bytes] = {}
        with self._lock:
            missing = []
            for key in keys:
                data = self._cached(key)
                if data is None:
                    missing.append(key)
                else:
                    out[key] = data
            if missing:
                answer = self._roundtrip({"op": "many", "keys": missing})
                if not answer.get("ok"):
                    raise StoreError(answer.get("error", "batch fetch failed"))
                for key, payload in answer["blobs"].items():
                    out[key] = self._admit(key, payload)
        return out

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "puts": self.puts,
                "put_skips": self.put_skips,
                "gets": self.gets,
                "cache_hits": self.cache_hits,
                "cache_bytes": self._cache_bytes,
            }
