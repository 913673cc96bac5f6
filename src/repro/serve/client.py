"""Client side of the build daemon: connect, request, stream, decode.

:class:`DaemonClient` is deliberately light -- stdlib sockets plus the
wire helpers in :mod:`.protocol` -- so importing it costs nothing when
no daemon is running (``build --daemon`` pings first and falls back to
the in-process compiler).

The socket path is resolved from ``$REPRO_SERVE_SOCKET``, else
``<root>/daemon.sock`` under ``$REPRO_SERVE_ROOT`` or the default
per-user root.  Client and daemon agree on these rules, so "start a
daemon, then build with ``--daemon``" needs no explicit wiring.
"""

from __future__ import annotations

import os
import socket
import tempfile
from typing import Callable, Dict, Optional

from .protocol import (
    OP_BUILD,
    OP_OBJDUMP,
    OP_PING,
    OP_SHUTDOWN,
    OP_STATUS,
    OP_TRAIN,
    ProtocolError,
    decode_bytes,
    make_request,
    read_message,
    write_message,
)

#: How long `available()` waits for a ping before declaring no daemon.
PING_TIMEOUT = 2.0


def default_root() -> str:
    """The daemon's state root (warm caches, socket, pidfile)."""
    root = os.environ.get("REPRO_SERVE_ROOT")
    if root:
        return root
    return os.path.join(
        tempfile.gettempdir(), "repro-serve-%d" % os.getuid()
    )


def default_socket_path() -> str:
    path = os.environ.get("REPRO_SERVE_SOCKET")
    if path:
        return path
    return os.path.join(default_root(), "daemon.sock")


def pidfile_path(root: Optional[str] = None) -> str:
    return os.path.join(root or default_root(), "daemon.pid")


class DaemonError(Exception):
    """Any failure talking to the daemon; ``code`` carries the
    protocol error code when the daemon answered with one."""

    def __init__(self, message: str, code: Optional[str] = None) -> None:
        super().__init__(message)
        self.code = code


class DaemonClient:
    """One client of a running build daemon.

    Each request opens one connection, sends one request line, and
    consumes progress lines until the result line.  ``on_progress``
    (if set) receives each progress message."""

    def __init__(self, socket_path: Optional[str] = None,
                 timeout: Optional[float] = None,
                 on_progress: Optional[Callable[[Dict], None]] = None):
        self.socket_path = socket_path or default_socket_path()
        self.timeout = timeout
        self.on_progress = on_progress

    @classmethod
    def from_env(cls, **kwargs) -> "DaemonClient":
        return cls(default_socket_path(), **kwargs)

    # -- Plumbing ---------------------------------------------------------------

    def _connect(self, timeout: Optional[float]) -> socket.socket:
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.settimeout(timeout)
        try:
            conn.connect(self.socket_path)
        except OSError as exc:
            conn.close()
            raise DaemonError(
                "cannot connect to daemon at %s: %s"
                % (self.socket_path, exc)
            )
        return conn

    def request(self, op: str, options: Optional[Dict] = None,
                timeout: Optional[float] = None) -> Dict:
        """Send one request; returns the daemon's ``result`` payload.

        Raises :class:`DaemonError` (with the protocol error code) on
        a structured failure, connection trouble, or a malformed
        stream."""
        timeout = timeout if timeout is not None else self.timeout
        conn = self._connect(timeout)
        try:
            stream = conn.makefile("rwb")
            try:
                write_message(stream, make_request(op, options))
                while True:
                    try:
                        message = read_message(stream)
                    except ProtocolError as exc:
                        raise DaemonError("bad daemon response: %s" % exc)
                    if message is None:
                        raise DaemonError(
                            "daemon closed the connection mid-request"
                        )
                    event = message.get("event")
                    if event == "progress":
                        if self.on_progress is not None:
                            self.on_progress(message)
                        continue
                    if event != "result":
                        raise DaemonError(
                            "unexpected daemon message %r" % event
                        )
                    if message.get("ok"):
                        return message.get("result", {})
                    error = message.get("error") or {}
                    raise DaemonError(
                        error.get("message", "request failed"),
                        code=error.get("code"),
                    )
            finally:
                stream.close()
        except socket.timeout:
            raise DaemonError("daemon did not answer within %ss" % timeout)
        except (BrokenPipeError, ConnectionResetError) as exc:
            raise DaemonError("connection to daemon lost: %s" % exc)
        finally:
            conn.close()

    # -- Operations --------------------------------------------------------------

    def available(self) -> bool:
        """True when a daemon answers a ping at the socket path."""
        if not os.path.exists(self.socket_path):
            return False
        try:
            return bool(self.request(OP_PING, timeout=PING_TIMEOUT)
                        .get("pong"))
        except DaemonError:
            return False

    def build(self, options: Dict,
              timeout: Optional[float] = None) -> Dict:
        """One build; returns ``summary``/``stats`` plus decoded
        ``image`` bytes."""
        result = self.request(OP_BUILD, options, timeout=timeout)
        out = dict(result)
        out["image"] = decode_bytes(out.pop("image_b64", ""))
        return out

    def train(self, options: Dict,
              timeout: Optional[float] = None) -> Dict:
        return self.request(OP_TRAIN, options, timeout=timeout)

    def objdump(self, options: Dict,
                timeout: Optional[float] = None) -> Dict:
        return self.request(OP_OBJDUMP, options, timeout=timeout)

    def status(self, timeout: Optional[float] = 5.0) -> Dict:
        return self.request(OP_STATUS, timeout=timeout)

    def shutdown(self, timeout: Optional[float] = 5.0) -> Dict:
        """Ask the daemon to drain and exit."""
        return self.request(OP_SHUTDOWN, timeout=timeout)
