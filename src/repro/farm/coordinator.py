"""The farm coordinator: one TCP endpoint, three kinds of peers.

A :class:`FarmCoordinator` *is* a :class:`~repro.serve.daemon.
BuildDaemon` -- same admission gate, warm state, heartbeat/timeout
session machinery, drain semantics -- listening on TCP instead of a
UNIX socket, with an authentication hello in front of every
connection (:mod:`.transport`).  The hello's role decides what the
connection speaks:

* ``client`` -- exactly the existing build protocol, handled by the
  inherited request path.  Admission and backpressure generalize
  across hosts for free: the gate neither knows nor cares where a
  connection came from.
* ``worker`` -- a coordinator-driven job loop.  The connection
  registers with the pull queue (:class:`~repro.sched.TaskQueue`);
  the coordinator pushes it the heaviest pending partition, one job
  at a time, and reads one reply.  A broken connection unregisters
  the worker, which re-queues its in-flight partition (bounded by the
  retry cap) -- a killed worker mid-partition costs a retry, not the
  build.
* ``store`` -- blob requests against the shared content-addressed
  store (:func:`~repro.farm.store.serve_store`).

Builds run the WPA phase on the coordinator; when the partitioned
LTRANS phase starts, the session's compiler hands partitions to
:class:`FarmDispatcher`, which publishes inputs to the store, submits
tasks to the pull queue, and folds worker outcomes back in partition
index order.  With no workers connected the dispatcher reports not
ready and the build runs its partitions locally -- a farm of zero
workers degrades to the single-process daemon.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional

from ..driver.compiler import CompileSession
from ..naim.repository import Repository
from ..sched.tasks import Task, TaskQueue
from ..serve.daemon import BuildDaemon, DaemonStartupError, _pid_alive
from ..serve.protocol import ProtocolError, read_message, write_message
from ..serve.state import WarmState
from .store import CasStore, serve_store
from .transport import (
    ROLE_CLIENT,
    ROLE_STORE,
    ROLE_WORKER,
    ensure_token,
    resolve_token,
    serve_hello,
)

#: Default coordinator port (0 = ephemeral, for tests).
DEFAULT_PORT = 7633

#: Seconds of worker idleness between keepalive pings.
PING_INTERVAL = 5.0


def default_farm_root() -> str:
    root = os.environ.get("REPRO_FARM_ROOT")
    if root:
        return root
    return os.path.join(
        tempfile.gettempdir(), "repro-farm-%d" % os.getuid()
    )


class FarmDispatcher:
    """Bridges a compiler's partition runs onto the farm.

    The :class:`~repro.part.runner.PartitionRunner` transport
    (``put_blob`` / ``dispatch``) on top of the coordinator's local
    CAS store and pull queue, plus the ``ready()`` the compiler's
    ``partition_dispatcher`` hook asks before using it."""

    def __init__(self, queue: TaskQueue, store: CasStore,
                 job_timeout: float = 600.0) -> None:
        self.queue = queue
        self.store = store
        self.job_timeout = job_timeout
        self._batch_serial = itertools.count(1)
        self.batches = 0
        self.jobs_dispatched = 0

    # -- Compiler hook surface ---------------------------------------------------

    def ready(self) -> bool:
        return self.queue.worker_count() > 0

    # -- Store access (local: the coordinator owns the store) -------------------

    def put_blob(self, data: bytes) -> str:
        return self.store.put(data)

    def get_blob(self, key: str) -> bytes:
        return self.store.get(key)

    # -- Dispatch ---------------------------------------------------------------

    def dispatch(self, jobs: List[Dict]) -> List[Dict]:
        """Run one batch of partition jobs on the farm workers.

        Blocks until every job completed (retries included) and
        returns the decoded outcome payloads.  Raises on exhausted
        retries or timeout; the session layer reports that as a
        failed build."""
        batch = next(self._batch_serial)
        tasks = [
            Task(
                "b%d:p%d" % (batch, job["index"]),
                job,
                weight=max(1, int(job.get("weight", 1))),
            )
            for job in jobs
        ]
        self.batches += 1
        self.jobs_dispatched += len(tasks)
        self.queue.submit(tasks)
        replies = self.queue.wait(
            [task.task_id for task in tasks], timeout=self.job_timeout
        )
        outcomes = []
        for task in tasks:
            reply = replies[task.task_id]
            outcome = json.loads(self.get_blob(reply["outcome_key"]))
            outcome["pass_seconds"] = reply.get("pass_seconds", {})
            outcomes.append(outcome)
        return outcomes


class FarmState(WarmState):
    """Warm state whose sessions dispatch partitions to the farm."""

    def __init__(self, root: str, dispatcher: FarmDispatcher,
                 cache_bytes: int = 64 * 1024 * 1024) -> None:
        self.dispatcher = dispatcher
        super().__init__(root, cache_bytes=cache_bytes)

    def _make_session(self, config) -> CompileSession:
        session = super()._make_session(config)
        session.compiler.partition_dispatcher = self.dispatcher
        return session


class FarmCoordinator(BuildDaemon):
    """A build daemon that fronts a worker farm (module docstring)."""

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 state_root: Optional[str] = None,
                 token: Optional[str] = None,
                 max_sessions: int = 2,
                 queue_depth: int = 4,
                 queue_timeout: float = 30.0,
                 request_timeout: Optional[float] = None,
                 heartbeat_seconds: float = 0.25,
                 retry_limit: int = 2,
                 job_timeout: float = 600.0) -> None:
        root = os.path.abspath(state_root or default_farm_root())
        os.makedirs(root, exist_ok=True)
        self.host = host
        self.port = port
        self.token = token if token is not None else ensure_token(root)
        self.task_queue = TaskQueue(retry_limit=retry_limit)
        self.store_repo = Repository(
            directory=os.path.join(root, "store")
        )
        self.store = CasStore(self.store_repo)
        self.dispatcher = FarmDispatcher(
            self.task_queue, self.store, job_timeout=job_timeout
        )
        self.workers: Dict[str, Dict] = {}
        self._workers_lock = threading.Lock()
        self._worker_serial = itertools.count(1)
        self.store_connections = 0
        self.auth_failures = 0
        # BuildDaemon.__init__ calls _make_state(), which needs the
        # dispatcher above; socket_path doubles as the port file.
        super().__init__(
            socket_path=os.path.join(root, "coordinator.port"),
            state_root=root,
            max_sessions=max_sessions,
            queue_depth=queue_depth,
            queue_timeout=queue_timeout,
            request_timeout=request_timeout,
            heartbeat_seconds=heartbeat_seconds,
        )

    def _make_state(self) -> WarmState:
        return FarmState(self.state_root, self.dispatcher)

    # -- Socket ownership --------------------------------------------------------

    def _live_endpoint(self) -> Optional[str]:
        """The endpoint in the port file, if something answers there."""
        try:
            with open(self.socket_path, "r", encoding="utf-8") as handle:
                endpoint = handle.read().strip()
            host, _, port_text = endpoint.rpartition(":")
            probe = socket.create_connection(
                (host, int(port_text)), timeout=1.0
            )
            probe.close()
            return endpoint
        except (OSError, ValueError):
            return None

    def _reclaim_stale(self) -> None:
        pid = None
        if os.path.exists(self.pidfile):
            try:
                with open(self.pidfile, "r", encoding="utf-8") as handle:
                    pid = int(handle.read().strip())
            except (OSError, ValueError):
                pid = None
        if pid is not None and _pid_alive(pid):
            endpoint = self._live_endpoint()
            if endpoint is not None:
                raise DaemonStartupError(
                    "a coordinator (pid %d) already serves %s"
                    % (pid, endpoint)
                )
        for stale in (self.socket_path, self.pidfile):
            try:
                os.unlink(stale)
            except OSError:
                pass

    def bind(self) -> None:
        os.makedirs(self.state_root, exist_ok=True)
        self._reclaim_stale()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((self.host, self.port))
        except OSError as exc:
            listener.close()
            raise DaemonStartupError(
                "cannot bind %s:%d: %s" % (self.host, self.port, exc)
            )
        self.port = listener.getsockname()[1]
        listener.listen(64)
        listener.settimeout(0.2)
        self._listener = listener
        with open(self.socket_path, "w", encoding="utf-8") as handle:
            handle.write("%s:%d\n" % (self.host, self.port))
        with open(self.pidfile, "w", encoding="utf-8") as handle:
            handle.write("%d\n" % os.getpid())

    @property
    def endpoint(self) -> str:
        return "%s:%d" % (self.host, self.port)

    # -- Connections -------------------------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(10.0)
            stream = conn.makefile("rwb")
            try:
                hello = serve_hello(stream, self.token)
                if hello is None:
                    self.auth_failures += 1
                    return
                role = hello["role"]
                if role == ROLE_CLIENT:
                    self._handle(stream)
                elif role == ROLE_STORE:
                    self.store_connections += 1
                    conn.settimeout(None)
                    serve_store(stream, self.store)
                elif role == ROLE_WORKER:
                    conn.settimeout(None)
                    self._serve_worker(stream, hello)
            finally:
                try:
                    stream.close()
                except OSError:
                    pass
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass
            with self._threads_lock:
                self._conn_threads.discard(threading.current_thread())

    # -- Worker job loop ---------------------------------------------------------

    def _serve_worker(self, stream, hello: Dict) -> None:
        label = str(hello.get("label") or "worker")
        worker_id = "w%d:%s" % (next(self._worker_serial), label)
        self.task_queue.register_worker(worker_id)
        with self._workers_lock:
            self.workers[worker_id] = {
                "label": label,
                "pid": hello.get("pid"),
                "host": hello.get("hostname"),
                "connected_at": time.time(),
                "jobs_done": 0,
                "jobs_failed": 0,
            }
        last_send = time.monotonic()
        try:
            while True:
                if self._stopped.is_set():
                    write_message(stream, {"op": "shutdown"})
                    return
                task = self.task_queue.next_for(worker_id, timeout=0.5)
                if task is None:
                    if not self.task_queue.is_registered(worker_id):
                        return  # queue closed (drain) or kicked
                    if time.monotonic() - last_send >= PING_INTERVAL:
                        write_message(stream, {"op": "ping"})
                        last_send = time.monotonic()
                    continue
                write_message(stream, {
                    "op": "run",
                    "task": task.task_id,
                    "job": task.payload,
                })
                last_send = time.monotonic()
                reply = read_message(stream)
                if reply is None:
                    raise OSError("worker closed mid-task")
                if reply.get("ok"):
                    self.task_queue.complete(
                        worker_id, task.task_id, reply
                    )
                    with self._workers_lock:
                        self.workers[worker_id]["jobs_done"] += 1
                else:
                    self.task_queue.fail(
                        worker_id, task.task_id,
                        str(reply.get("error", "worker error")),
                    )
                    with self._workers_lock:
                        self.workers[worker_id]["jobs_failed"] += 1
        except (OSError, ValueError, ProtocolError):
            pass
        finally:
            self.task_queue.unregister_worker(worker_id)
            with self._workers_lock:
                self.workers.pop(worker_id, None)

    # -- Lifecycle ---------------------------------------------------------------

    def _drain(self) -> None:
        self.task_queue.close()
        super()._drain()
        self.store_repo.close()

    # -- Introspection -----------------------------------------------------------

    def status(self) -> Dict:
        status = super().status()
        status["endpoint"] = self.endpoint
        with self._workers_lock:
            status["workers"] = [
                dict(info, id=worker_id)
                for worker_id, info in sorted(self.workers.items())
            ]
        status["queue"] = self.task_queue.stats()
        status["store"] = {
            "entries": len(self.store_repo),
            "io": self.store_repo.io_stats(),
        }
        status["dispatch"] = {
            "batches": self.dispatcher.batches,
            "jobs": self.dispatcher.jobs_dispatched,
        }
        status["auth_failures"] = self.auth_failures
        return status


def run_coordinator(host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                    state_root: Optional[str] = None,
                    token: Optional[str] = None,
                    max_sessions: int = 2, queue_depth: int = 4,
                    request_timeout: Optional[float] = None,
                    retry_limit: int = 2, log=None) -> int:
    """Foreground entry point for ``python -m repro.farm coordinator``."""
    try:
        coordinator = FarmCoordinator(
            host=host, port=port, state_root=state_root, token=token,
            max_sessions=max_sessions, queue_depth=queue_depth,
            request_timeout=request_timeout, retry_limit=retry_limit,
        )
        coordinator.bind()
    except DaemonStartupError as exc:
        print("repro-farm: %s" % exc, file=log or sys.stderr)
        return 1
    coordinator.install_signal_handlers()
    print("repro-farm: coordinator pid %d listening on %s (root %s)"
          % (os.getpid(), coordinator.endpoint, coordinator.state_root),
          file=log or sys.stderr, flush=True)
    coordinator.serve_forever()
    print("repro-farm: coordinator drained and stopped",
          file=log or sys.stderr, flush=True)
    return 0
