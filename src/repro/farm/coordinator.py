"""The build server: warm build engines, and a farm when workers attach.

One :class:`FarmCoordinator` owns a :class:`~.state.WarmState` and
listens on TCP, with an authentication hello in front of every
connection (:mod:`.transport`).  The hello's role decides what the
connection speaks:

* ``client`` -- one build-protocol request (:mod:`.protocol`).
  Session ops pass through an :class:`AdmissionGate` that bounds
  concurrency and queue depth, rejecting the overflow with
  ``ServerBusy`` instead of letting latency collapse.  The gate
  neither knows nor cares which host a connection came from.
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
LTRANS phase starts, the engine's compiler hands partitions to
:class:`FarmDispatcher`, which publishes inputs to the store, submits
tasks to the pull queue, and folds worker outcomes back in partition
index order.  With no workers connected the dispatcher reports not
ready and the build runs its partitions in the coordinator's own
process pool: a coordinator with zero workers is a warm build server.

Lifecycle:

* **boot** -- re-validates the state root, reclaims a stale port file
  and pidfile if their owner is dead (``kill(pid, 0)`` plus a live
  connect to the recorded endpoint), and refuses to start over a live
  coordinator;
* **serve** -- a thread per connection; build work runs in a separate
  worker thread so the connection thread can stream heartbeat progress
  (which doubles as disconnect detection) and enforce the per-request
  timeout;
* **drain** -- on SIGTERM (or a ``shutdown`` request) the coordinator
  stops accepting sessions, answers new ones with ``ServerDraining``,
  finishes the active ones, then removes the port file and pidfile.

A client that disconnects mid-build costs nothing but the build
already in flight: streaming stops, the result is discarded, and the
admission slot is released when the worker finishes.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import signal
import socket
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional

from ..naim.repository import Repository
from ..part.runner import queue_jobs
from ..sched.tasks import TaskQueue
from .protocol import (
    ERR_BAD_REQUEST,
    ERR_BUSY,
    ERR_DRAINING,
    ERR_INTERNAL,
    ERR_LINE_TOO_LONG,
    ERR_TIMEOUT,
    OP_PING,
    OP_SHUTDOWN,
    OP_STATUS,
    LineTooLongError,
    ProtocolError,
    make_error,
    make_progress,
    make_result,
    read_message,
    validate_request,
    write_message,
)
from .state import RequestError, WarmState
from .store import CasStore, serve_store
from .transport import (
    ROLE_CLIENT,
    ROLE_STORE,
    ROLE_WORKER,
    ensure_token,
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


class DaemonStartupError(Exception):
    """The coordinator could not take ownership of its port file and
    pidfile."""


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class AdmissionGate:
    """Bounded admission: at most ``max_sessions`` running and
    ``queue_depth`` waiting; everything past that is rejected
    immediately (the caller answers ``ServerBusy``).

    ``try_acquire`` returns the queue wait in seconds when admitted
    and ``None`` when rejected; every admit must be paired with one
    ``release`` -- by whoever finishes the work, even after the
    connection that requested it has given up."""

    def __init__(self, max_sessions: int = 2, queue_depth: int = 4) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        self.max_sessions = max_sessions
        self.queue_depth = queue_depth
        self._cond = threading.Condition()
        self.active = 0
        self.waiting = 0
        self.admitted = 0
        self.rejected = 0
        self.peak_active = 0

    def try_acquire(self,
                    timeout: Optional[float] = None) -> Optional[float]:
        start = time.monotonic()
        deadline = None if timeout is None else start + timeout
        with self._cond:
            if (self.active >= self.max_sessions
                    and self.waiting >= self.queue_depth):
                self.rejected += 1
                return None
            self.waiting += 1
            try:
                while self.active >= self.max_sessions:
                    remaining = (None if deadline is None
                                 else deadline - time.monotonic())
                    if remaining is not None and remaining <= 0:
                        self.rejected += 1
                        return None
                    self._cond.wait(timeout=remaining)
                self.active += 1
                self.admitted += 1
                self.peak_active = max(self.peak_active, self.active)
            finally:
                self.waiting -= 1
        return time.monotonic() - start

    def release(self) -> None:
        with self._cond:
            if self.active <= 0:
                raise RuntimeError("release() without a matching acquire")
            self.active -= 1
            self._cond.notify()

    def stats(self) -> Dict[str, int]:
        with self._cond:
            return {
                "max_sessions": self.max_sessions,
                "queue_depth": self.queue_depth,
                "active": self.active,
                "waiting": self.waiting,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "peak_active": self.peak_active,
            }


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
        self.batches += 1
        self.jobs_dispatched += len(jobs)
        replies = queue_jobs(
            jobs, functools.partial(self.queue.run_batch,
                                    timeout=self.job_timeout),
            prefix="b%d:" % next(self._batch_serial),
        )
        return [
            dict(json.loads(self.get_blob(reply["outcome_key"])),
                 pass_seconds=reply.get("pass_seconds", {}))
            for reply in replies
        ]


class FarmCoordinator:
    """The one build server (module docstring)."""

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
        self.state_root = os.path.abspath(state_root or default_farm_root())
        self.host = host
        self.port = port
        self.port_file = os.path.join(self.state_root, "coordinator.port")
        self.pidfile = os.path.join(self.state_root, "daemon.pid")
        # A live predecessor keeps its root: fail before touching it.
        self._reclaim_stale()
        os.makedirs(self.state_root, exist_ok=True)
        self.token = (token if token is not None
                      else ensure_token(self.state_root))
        self.gate = AdmissionGate(max_sessions, queue_depth)
        #: How long an admitted-but-queued request may wait for a slot.
        self.queue_timeout = queue_timeout
        #: Wall-clock budget for one session op (None = unlimited).
        self.request_timeout = request_timeout
        self.heartbeat_seconds = heartbeat_seconds
        self.task_queue = TaskQueue(retry_limit=retry_limit)
        self.store_repo = Repository(
            directory=os.path.join(self.state_root, "store")
        )
        try:
            self.store = CasStore(self.store_repo)
            self.dispatcher = FarmDispatcher(
                self.task_queue, self.store, job_timeout=job_timeout
            )
            self.state = WarmState(self.state_root, self.dispatcher)
        except BaseException:
            self.store_repo.close()
            raise
        self.requests_served = 0
        self.disconnects = 0
        self.timeouts = 0
        self.workers: Dict[str, Dict] = {}
        self._workers_lock = threading.Lock()
        self._worker_serial = itertools.count(1)
        self.store_connections = 0
        self.auth_failures = 0
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._conn_threads: set = set()
        self._threads_lock = threading.Lock()

    # -- Port file/pidfile ownership ---------------------------------------------

    def _live_endpoint(self) -> Optional[str]:
        """The endpoint in the port file, if something answers there."""
        try:
            with open(self.port_file, "r", encoding="utf-8") as handle:
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
        """Take over a dead predecessor's port file and pidfile.

        A live predecessor (its pid runs *and* its endpoint answers)
        makes startup fail loudly instead of being stolen from.  A
        running pid whose endpoint is silent is most likely a pid
        reused after a crash; reclaim."""
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
        for stale in (self.port_file, self.pidfile):
            try:
                os.unlink(stale)
            except OSError:
                pass

    def bind(self) -> None:
        """Claim the port file and pidfile; must precede ``serve_forever``."""
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
        with open(self.port_file, "w", encoding="utf-8") as handle:
            handle.write("%s:%d\n" % (self.host, self.port))
        with open(self.pidfile, "w", encoding="utf-8") as handle:
            handle.write("%d\n" % os.getpid())

    @property
    def endpoint(self) -> str:
        return "%s:%d" % (self.host, self.port)

    # -- Serving -----------------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept until shutdown; returns after the drain completes."""
        if self._listener is None:
            self.bind()
        try:
            while not self._stopped.is_set():
                try:
                    conn, _ = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                thread = threading.Thread(
                    target=self._serve_connection, args=(conn,),
                    daemon=True,
                )
                with self._threads_lock:
                    self._conn_threads.add(thread)
                thread.start()
        finally:
            self._drain()

    def request_shutdown(self) -> None:
        """Start the drain; safe from signal handlers and any thread."""
        self._draining.set()
        self._stopped.set()

    def install_signal_handlers(self) -> None:
        def _on_term(signum, frame):
            self.request_shutdown()

        signal.signal(signal.SIGTERM, _on_term)
        signal.signal(signal.SIGINT, _on_term)

    def _drain(self) -> None:
        """Finish active connections, then release the port file,
        the pidfile and the warm state."""
        self._draining.set()
        self.task_queue.close()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        while True:
            with self._threads_lock:
                pending = [t for t in self._conn_threads if t.is_alive()]
            if not pending:
                break
            for thread in pending:
                thread.join(timeout=1.0)
        for owned in (self.port_file, self.pidfile):
            try:
                os.unlink(owned)
            except OSError:
                pass
        self.close()

    def close(self) -> None:
        """Release what the constructor opened: the warm state (its
        engines, process pool and boot marker) and the store."""
        self.state.close()
        self.store_repo.close()

    # -- Connections -------------------------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(10.0)  # an idle connect cannot pin a thread
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

    # -- One client request ------------------------------------------------------

    def _handle(self, stream) -> None:
        try:
            message = read_message(stream)
        except LineTooLongError as exc:
            # The oversized line was drained, so this structured answer
            # actually reaches the client (previously: silent drop and
            # a diagnosis-free disconnect).
            self._send(stream, make_error(
                "?", ERR_LINE_TOO_LONG, str(exc), limit=exc.limit,
            ))
            return
        except ProtocolError as exc:
            self._send(stream, make_error("?", ERR_BAD_REQUEST, str(exc)))
            return
        if message is None:
            return
        try:
            validate_request(message)
        except ProtocolError as exc:
            self._send(stream, make_error(
                str(message.get("id", "?")), ERR_BAD_REQUEST, str(exc)
            ))
            return
        request_id = message["id"]
        op = message["op"]
        options = message.get("options", {})
        self.requests_served += 1

        if op == OP_PING:
            self._send(stream, make_result(request_id, {
                "pong": True, "pid": os.getpid(),
                "draining": self._draining.is_set(),
            }))
            return
        if op == OP_STATUS:
            self._send(stream, make_result(request_id, self.status()))
            return
        if op == OP_SHUTDOWN:
            self._send(stream, make_result(request_id, {"stopping": True}))
            self.request_shutdown()
            return
        # Session ops from here on.
        if self._draining.is_set():
            self._send(stream, make_error(
                request_id, ERR_DRAINING,
                "coordinator is draining for shutdown",
            ))
            return
        queue_wait = self.gate.try_acquire(timeout=self.queue_timeout)
        if queue_wait is None:
            self._send(stream, make_error(
                request_id, ERR_BUSY,
                "coordinator at capacity (%d active, %d queued)"
                % (self.gate.max_sessions, self.gate.queue_depth),
            ))
            return
        self._run_session(stream, request_id, op, options, queue_wait)

    def _run_session(self, stream, request_id: str, op: str,
                     options: Dict, queue_wait: float) -> None:
        """Run one admitted op in a worker; stream heartbeats.

        The connection thread owns the socket: it forwards progress,
        sends a heartbeat every ``heartbeat_seconds`` (whose failure
        detects a vanished client), and enforces ``request_timeout``.
        The admission slot is released by the worker's ``finally`` --
        only when the work truly finished -- so a timed-out or
        abandoned build cannot let more than ``max_sessions`` builds
        run at once."""
        send_lock = threading.Lock()
        client_gone = threading.Event()
        done = threading.Event()
        box: Dict[str, object] = {}

        def deliver(message: Dict) -> bool:
            if client_gone.is_set():
                return False
            with send_lock:
                try:
                    write_message(stream, message)
                    return True
                except (OSError, ValueError):
                    client_gone.set()
                    self.disconnects += 1
                    return False

        def progress(phase: str, **fields) -> None:
            deliver(make_progress(request_id, phase, **fields))

        def work() -> None:
            try:
                box["result"] = self.state.execute(
                    op, options, progress=progress
                )
            except RequestError as exc:
                box["error"] = exc
            except Exception as exc:  # noqa: BLE001 - server must not die
                box["error"] = RequestError(
                    ERR_INTERNAL,
                    "%s: %s" % (type(exc).__name__, exc),
                )
            finally:
                done.set()
                self.gate.release()

        progress("queued", queue_wait_seconds=round(queue_wait, 6))
        worker = threading.Thread(target=work, daemon=True)
        started = time.monotonic()
        worker.start()
        while not done.wait(timeout=self.heartbeat_seconds):
            elapsed = time.monotonic() - started
            if (self.request_timeout is not None
                    and elapsed > self.request_timeout):
                self.timeouts += 1
                deliver(make_error(
                    request_id, ERR_TIMEOUT,
                    "request exceeded %.1fs" % self.request_timeout,
                ))
                return  # worker finishes in the background
            if not deliver(make_progress(
                request_id, "working",
                elapsed_seconds=round(elapsed, 3),
            )):
                return  # client hung up; discard the result
        error = box.get("error")
        if error is not None:
            deliver(make_error(request_id, error.code, str(error)))
            return
        result = box.get("result") or {}
        stats = result.get("stats")
        if isinstance(stats, dict):
            stats["queue_wait_seconds"] = round(queue_wait, 6)
        deliver(make_result(request_id, result))

    def _send(self, stream, message: Dict) -> None:
        try:
            write_message(stream, message)
        except (OSError, ValueError):
            pass

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

    # -- Introspection -----------------------------------------------------------

    def status(self) -> Dict:
        status = self.state.status()
        status["pid"] = os.getpid()
        status["endpoint"] = self.endpoint
        status["draining"] = self._draining.is_set()
        status["requests_served"] = self.requests_served
        status["disconnects"] = self.disconnects
        status["timeouts"] = self.timeouts
        status["admission"] = self.gate.stats()
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
    coordinator = None
    try:
        coordinator = FarmCoordinator(
            host=host, port=port, state_root=state_root, token=token,
            max_sessions=max_sessions, queue_depth=queue_depth,
            request_timeout=request_timeout, retry_limit=retry_limit,
        )
        coordinator.bind()
    except DaemonStartupError as exc:
        if coordinator is not None:
            coordinator.close()
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
