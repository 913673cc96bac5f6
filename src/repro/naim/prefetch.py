"""The loader's asynchronous prefetch pipeline.

A repository miss on the critical path is a synchronous fetch + decode
(uncompact) stall.  The pipeline moves that work off the hot path: the
scalar worklists (serial phase 5 and the partition workers) enqueue the
*next* routines' offloaded pools while the current one is being
optimized, a background thread fetches them in
:meth:`~repro.naim.repository.Repository.fetch_many` batches and
decodes them into ready expanded objects, and the loader's ``touch``
consumes the staged object instead of hitting the repository.

Threading contract:

* only the background thread touches the repository on behalf of the
  pipeline; decoded objects move to the owner thread through the
  staged map under one condition variable;
* **pool state never changes off the owner thread** -- staging is a
  side table, and the pool only becomes EXPANDED when the owner's
  ``touch`` consumes the staged object.  That keeps every observable
  loader decision (eviction order, accounting, codegen inputs)
  deterministic regardless of thread timing;
* decode errors quietly drop the key from the in-flight set; the
  owner's ``touch`` then falls back to the ordinary synchronous
  fetch-and-raise path, so a damaged entry fails exactly like it
  would without prefetching.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

Key = Tuple[str, str]


class PrefetchPipeline:
    """Background fetch+decode queue feeding one loader."""

    def __init__(
        self,
        repository,
        decode: Callable[[str, bytes], object],
    ) -> None:
        self._repository = repository
        #: decode(kind, compact_bytes) -> expanded object.
        self._decode = decode
        self._cond = threading.Condition()
        self._queue: List[List[Key]] = []
        self._inflight: Set[Key] = set()
        #: key -> (decoded object, raw compact byte length).
        self._ready: Dict[Key, Tuple[object, int]] = {}
        self._ready_raw_bytes = 0
        self._thread: Optional[threading.Thread] = None
        self._stop = False
        #: Pools fetched + decoded by the pipeline (lifetime counters;
        #: read by the owner after the thread is joined or under the
        #: condition lock).
        self.fetched = 0
        self.decode_failures = 0

    # -- Owner-thread API ----------------------------------------------------------

    def request(self, keys: Iterable[Key]) -> int:
        """Enqueue a batch; returns how many keys were newly queued.

        Keys already staged, in flight, or queued are skipped, so
        sliding-window callers can re-request overlapping spans for
        free.
        """
        with self._cond:
            fresh = [
                key for key in keys
                if key not in self._inflight and key not in self._ready
            ]
            if not fresh:
                return 0
            self._inflight.update(fresh)
            self._queue.append(fresh)
            if self._thread is None or not self._thread.is_alive():
                self._stop = False
                self._thread = threading.Thread(
                    target=self._run, name="naim-prefetch", daemon=True
                )
                self._thread.start()
            self._cond.notify_all()
        return len(fresh)

    def take(self, key: Key, wait: bool = True,
             timeout: float = 30.0) -> Optional[object]:
        """Pop the staged decoded object for ``key``; None if unknown.

        When the key is still in flight the caller is about to need it
        *right now*, so block until the background decode lands (or
        the key is dropped after a decode error / timeout).  None
        always means "fall back to the synchronous path".
        """
        with self._cond:
            while True:
                staged = self._ready.pop(key, None)
                if staged is not None:
                    obj, raw_len = staged
                    self._ready_raw_bytes -= raw_len
                    return obj
                if not wait or key not in self._inflight:
                    return None
                if not self._cond.wait(timeout=timeout):
                    self._inflight.discard(key)
                    return None

    def pending(self) -> int:
        with self._cond:
            return len(self._inflight)

    def staged(self) -> int:
        with self._cond:
            return len(self._ready)

    def staged_raw_bytes(self) -> int:
        """Compact bytes held decoded in the staging area."""
        with self._cond:
            return self._ready_raw_bytes

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every requested key is staged (or dropped)."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not self._inflight, timeout=timeout
            )

    def close(self) -> None:
        """Stop the background thread; staged objects stay consumable."""
        with self._cond:
            self._stop = True
            self._queue = []
            self._inflight.clear()
            self._cond.notify_all()
            thread = self._thread
            self._thread = None
        if thread is not None and thread.is_alive():
            thread.join(timeout=10.0)

    def discard(self, key: Key) -> None:
        """Forget any staged/queued work for a dropped pool."""
        with self._cond:
            self._ready.pop(key, None)
            self._inflight.discard(key)
            self._cond.notify_all()

    # -- Background thread ----------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stop:
                    self._cond.wait()
                if self._stop:
                    return
                batch = self._queue.pop(0)
            # Fetch + decode outside the condition lock: the repository
            # has its own locking, and decode is the expensive part the
            # pipeline exists to overlap.
            try:
                fetched = self._repository.fetch_many(batch)
            except Exception:
                fetched = {}
            decoded: Dict[Key, Tuple[object, int]] = {}
            failures = 0
            for key in batch:
                data = fetched.get(key)
                if data is None:
                    failures += 1
                    continue
                try:
                    decoded[key] = (self._decode(key[0], data), len(data))
                except Exception:
                    failures += 1
            with self._cond:
                if self._stop:
                    return
                for key in batch:
                    self._inflight.discard(key)
                for key, staged in decoded.items():
                    self._ready[key] = staged
                    self._ready_raw_bytes += staged[1]
                self.fetched += len(decoded)
                self.decode_failures += failures
                self._cond.notify_all()
