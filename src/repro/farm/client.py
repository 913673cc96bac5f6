"""Client side of the build server: dial, hello, request, stream, decode.

:class:`FarmClient` dials the coordinator over TCP, authenticates with
the token hello (:mod:`.transport`), sends one request line and
consumes progress lines until the result line.  ``python -m
repro.driver build --farm HOST:PORT`` and ``python -m repro.farm
status``/``stop`` use it; the stdlib sockets and the wire helpers in
:mod:`.protocol` are all it needs.
"""

from __future__ import annotations

import socket
from typing import Callable, Dict, Optional

from .protocol import (
    OP_BUILD,
    OP_PING,
    OP_SHUTDOWN,
    OP_STATUS,
    ProtocolError,
    decode_bytes,
    make_request,
    read_message,
    write_message,
)
from .transport import ROLE_CLIENT, AuthError, connect, parse_endpoint, resolve_token

#: How long `available()` waits for a ping before declaring no server.
PING_TIMEOUT = 2.0


class FarmError(Exception):
    """Any failure talking to the coordinator; ``code`` carries the
    protocol error code when the coordinator answered with one."""

    def __init__(self, message: str, code: Optional[str] = None) -> None:
        super().__init__(message)
        self.code = code


class FarmClient:
    """One client of a running coordinator.

    Each request opens one connection, sends one request line, and
    consumes progress lines until the result line.  ``on_progress``
    (if set) receives each progress message."""

    def __init__(self, endpoint: str,
                 token: Optional[str] = None,
                 timeout: Optional[float] = None,
                 on_progress: Optional[Callable[[Dict], None]] = None):
        self.host, self.port = parse_endpoint(endpoint)
        self.endpoint = "%s:%d" % (self.host, self.port)
        self.token = resolve_token(token)
        self.timeout = timeout
        self.on_progress = on_progress

    # -- Plumbing ---------------------------------------------------------------

    def _connect(self, timeout: Optional[float]) -> socket.socket:
        try:
            conn, stream = connect(
                self.host, self.port, ROLE_CLIENT, self.token,
                timeout=timeout,
            )
        except AuthError as exc:
            raise FarmError(
                "farm at %s refused the connection: %s"
                % (self.endpoint, exc)
            )
        except OSError as exc:
            raise FarmError(
                "cannot connect to farm at %s: %s" % (self.endpoint, exc)
            )
        # The handshake stream is done; close the wrapper (the socket
        # itself stays open -- the request path makes its own).
        try:
            stream.close()
        except OSError:
            pass
        return conn

    def request(self, op: str, options: Optional[Dict] = None,
                timeout: Optional[float] = None) -> Dict:
        """Send one request; returns the coordinator's ``result`` payload.

        Raises :class:`FarmError` (with the protocol error code) on a
        structured failure, connection trouble, or a malformed
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
                        raise FarmError("bad farm response: %s" % exc)
                    if message is None:
                        raise FarmError(
                            "farm closed the connection mid-request"
                        )
                    event = message.get("event")
                    if event == "progress":
                        if self.on_progress is not None:
                            self.on_progress(message)
                        continue
                    if event != "result":
                        raise FarmError(
                            "unexpected farm message %r" % event
                        )
                    if message.get("ok"):
                        return message.get("result", {})
                    error = message.get("error") or {}
                    raise FarmError(
                        error.get("message", "request failed"),
                        code=error.get("code"),
                    )
            finally:
                stream.close()
        except socket.timeout:
            raise FarmError("farm did not answer within %ss" % timeout)
        except (BrokenPipeError, ConnectionResetError) as exc:
            raise FarmError("connection to farm lost: %s" % exc)
        finally:
            conn.close()

    # -- Operations --------------------------------------------------------------

    def available(self) -> bool:
        """True when a coordinator answers a ping at the endpoint."""
        try:
            return bool(self.request(OP_PING, timeout=PING_TIMEOUT)
                        .get("pong"))
        except FarmError:
            return False

    def build(self, options: Dict,
              timeout: Optional[float] = None) -> Dict:
        """One build; returns ``summary``/``stats`` plus decoded
        ``image`` bytes."""
        result = self.request(OP_BUILD, options, timeout=timeout)
        out = dict(result)
        out["image"] = decode_bytes(out.pop("image_b64", ""))
        return out

    def status(self, timeout: Optional[float] = 5.0) -> Dict:
        return self.request(OP_STATUS, timeout=timeout)

    def shutdown(self, timeout: Optional[float] = 5.0) -> Dict:
        """Ask the coordinator to drain and exit."""
        return self.request(OP_SHUTDOWN, timeout=timeout)
