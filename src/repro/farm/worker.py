"""The farm worker daemon: N job slots against one coordinator.

A :class:`FarmWorker` opens one **worker** connection per job slot
(``--jobs 4`` = four slots), so the coordinator's pull queue hands
each slot one job at a time and a multi-core worker host is just N
workers that happen to share a process -- plus one **store**
connection per slot for blob traffic (a :class:`~repro.farm.store.
StoreClient`), kept separate so a long blob fetch never stalls the
job command stream.

Each slot loops: read a command, run the partition
(:func:`repro.part.wire.run_wire_job` -- the same executor every
transport uses), publish the outcome to the shared store, and reply
with its content hash.  Decoded shared contexts are cached per
process (keyed by their CAS hash), so a warm rebuild's partitions
skip symbol-table reconstruction entirely; profile views are rebuilt
fresh per job because scalar passes mutate them.

Failure model: any error executing a job is reported to the
coordinator (which re-queues the partition, bounded by its retry
cap); a lost coordinator connection triggers reconnect-with-delay
forever, so workers can outlive coordinator restarts.
"""

from __future__ import annotations

import json
import os
import signal
import socket as socket_module
import sys
import threading
import time
from typing import Dict, List, Optional

from ..part.wire import ContextCache, job_pool_keys, run_wire_job
from .protocol import ProtocolError, read_message, write_message
from .store import StoreClient
from .transport import ROLE_STORE, ROLE_WORKER, AuthError, connect


class FarmWorker:
    """N job slots connected to one coordinator (module docstring)."""

    def __init__(self, host: str, port: int,
                 token: Optional[str] = None,
                 jobs: int = 1,
                 label: Optional[str] = None,
                 reconnect_delay: float = 1.0) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.host = host
        self.port = port
        self.token = token
        self.jobs = jobs
        self.label = label or socket_module.gethostname()
        self.reconnect_delay = reconnect_delay
        self.jobs_done = 0
        self.jobs_failed = 0
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._conns_lock = threading.Lock()
        self._conns: Dict[int, List] = {}
        self._contexts = ContextCache()

    # -- Lifecycle --------------------------------------------------------------

    def start(self) -> None:
        for slot in range(self.jobs):
            thread = threading.Thread(
                target=self._slot_main, args=(slot,), daemon=True,
                name="farm-slot-%d" % slot,
            )
            self._threads.append(thread)
            thread.start()

    def stop(self) -> None:
        """Stop every slot; safe from signal handlers."""
        self._stop.set()
        with self._conns_lock:
            conns = [conn for pair in self._conns.values()
                     for conn in pair]
            self._conns.clear()
        for conn in conns:
            # shutdown() tears the connection down even while makefile
            # streams still hold the fd, which both unblocks slots
            # parked in read_message and sends the coordinator its EOF.
            try:
                conn.shutdown(socket_module.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass

    def join(self, timeout: Optional[float] = None) -> None:
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        for thread in self._threads:
            remaining = (None if deadline is None
                         else max(0.0, deadline - time.monotonic()))
            thread.join(timeout=remaining)

    def alive(self) -> bool:
        return any(thread.is_alive() for thread in self._threads)

    # -- Slot loop --------------------------------------------------------------

    def _slot_main(self, slot: int) -> None:
        while not self._stop.is_set():
            try:
                self._serve_one_connection(slot)
            except (OSError, AuthError, ValueError, ProtocolError):
                pass
            if self._stop.is_set():
                return
            self._stop.wait(self.reconnect_delay)

    def _serve_one_connection(self, slot: int) -> None:
        conn, stream = connect(
            self.host, self.port, ROLE_WORKER, self.token,
            timeout=5.0, label="%s#%d" % (self.label, slot),
            pid=os.getpid(), hostname=socket_module.gethostname(),
        )
        store_conn = store_stream = None
        try:
            store_conn, store_stream = connect(
                self.host, self.port, ROLE_STORE, self.token,
                timeout=5.0,
            )
            conn.settimeout(None)
            store_conn.settimeout(None)
            with self._conns_lock:
                if self._stop.is_set():
                    return
                self._conns[slot] = [conn, store_conn]
            store = StoreClient(store_stream)
            while not self._stop.is_set():
                message = read_message(stream)
                if message is None:
                    return  # coordinator went away; reconnect
                op = message.get("op")
                if op == "ping":
                    continue
                if op == "shutdown":
                    return  # coordinator draining; retry later
                if op == "run":
                    write_message(stream, self._run_job(message, store))
        finally:
            with self._conns_lock:
                self._conns.pop(slot, None)
            # Close the makefile streams too: the socket fd stays open
            # (and the coordinator's serve thread stays parked in read)
            # until the last stream wrapper releases it.
            for closable in (stream, store_stream, conn, store_conn):
                if closable is not None:
                    try:
                        closable.close()
                    except OSError:
                        pass

    # -- Job execution ----------------------------------------------------------

    def _run_job(self, message: Dict, store: StoreClient) -> Dict:
        task = message.get("task")
        job = message.get("job") or {}
        try:
            # Prefetch every pool blob in one batch round-trip before
            # the loader starts touching them one by one.
            store.get_blobs(job_pool_keys(job).values())
            outcome = run_wire_job(job, store, self._contexts)
            # Timings ride in the reply: the stored outcome stays a
            # function of the job, so a rebuild's identical put dedups.
            pass_seconds = outcome.pop("pass_seconds")
            blob = json.dumps(
                outcome, sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
            outcome_key = store.put_blob(blob)
            self.jobs_done += 1
            return {"ok": True, "task": task, "outcome_key": outcome_key,
                    "pass_seconds": pass_seconds}
        except Exception as exc:  # noqa: BLE001 - report, don't die
            self.jobs_failed += 1
            return {
                "ok": False,
                "task": task,
                "error": "%s: %s" % (type(exc).__name__, exc),
            }


def run_worker(host: str, port: int, token: Optional[str] = None,
               jobs: int = 1, label: Optional[str] = None,
               reconnect_delay: float = 1.0, log=None) -> int:
    """Foreground entry point for ``python -m repro.farm worker``."""
    worker = FarmWorker(host, port, token=token, jobs=jobs,
                        label=label, reconnect_delay=reconnect_delay)

    def _on_term(signum, frame):
        worker.stop()

    signal.signal(signal.SIGTERM, _on_term)
    signal.signal(signal.SIGINT, _on_term)
    worker.start()
    print("repro-farm: worker pid %d (%d slot%s) serving %s:%d"
          % (os.getpid(), jobs, "" if jobs == 1 else "s", host, port),
          file=log or sys.stderr, flush=True)
    try:
        while worker.alive() and not worker._stop.is_set():
            time.sleep(0.2)
    except KeyboardInterrupt:
        worker.stop()
    worker.stop()
    worker.join(timeout=10.0)
    print("repro-farm: worker stopped", file=log or sys.stderr,
          flush=True)
    return 0
