"""The build protocol between a client and the coordinator.

Newline-delimited JSON over the coordinator's TCP connection, after
the hello of :mod:`.transport`.  Each client connection carries
exactly one request and its responses:

* client -> coordinator: one **request** line
  ``{"v": 1, "id": "...", "op": "...", "options": {...}}``;
* coordinator -> client: zero or more **progress** lines
  ``{"id": ..., "event": "progress", "phase": ..., ...}``
  followed by exactly one **result** line
  ``{"id": ..., "event": "result", "ok": true, "result": {...}}`` or
  ``{"id": ..., "event": "result", "ok": false,
  "error": {"code": ..., "message": ...}}``.

Binary payloads (linked images) travel base64-encoded under ``_b64``
keys.  Lines are UTF-8 and bounded by :data:`MAX_LINE_BYTES`, so a
corrupt or hostile peer cannot make either side buffer unboundedly.
"""

from __future__ import annotations

import base64
import json
import uuid
from typing import Dict, Optional

#: Protocol version; the coordinator rejects requests whose ``v`` it
#: does not speak, so mixed-version client/server pairs fail loudly.
PROTOCOL_VERSION = 1

#: Upper bound on one protocol line (sources and images for very large
#: programs still fit comfortably; runaway peers do not).
MAX_LINE_BYTES = 256 * 1024 * 1024

#: Request operations the coordinator serves.
OP_BUILD = "build"
OP_STATUS = "status"
OP_PING = "ping"
OP_SHUTDOWN = "shutdown"

#: Ops that run as admitted build sessions (vs control-plane ops that
#: answer immediately).  ``train`` and ``objdump`` run in the client's
#: own process (``python -m repro.driver train``/``objdump``); a request
#: naming them is an unknown op.
SESSION_OPS = (OP_BUILD,)

# -- Error codes -------------------------------------------------------------------

#: Admission control rejected the request: the coordinator is at its
#: concurrent-session limit and its queue is full.
ERR_BUSY = "ServerBusy"
#: The coordinator is drain-shutting-down and accepts no new sessions.
ERR_DRAINING = "ServerDraining"
#: The request was malformed (bad JSON, unknown op, missing fields).
ERR_BAD_REQUEST = "BadRequest"
#: The build itself failed; ``message`` carries the compiler
#: diagnostic.
ERR_FAILED = "RequestFailed"
#: The per-request timeout elapsed before the session finished.
ERR_TIMEOUT = "Timeout"
#: Anything unexpected inside the coordinator.
ERR_INTERNAL = "Internal"
#: One incoming protocol line exceeded the receiver's line limit.
ERR_LINE_TOO_LONG = "LineTooLong"


class ProtocolError(Exception):
    """A malformed, oversized or truncated protocol line."""


class LineTooLongError(ProtocolError):
    """One incoming line exceeded ``max_bytes``.

    The oversized line has been consumed (drained) when this is
    raised, so the stream is back in sync: the receiver can still
    answer with a structured ``LineTooLong`` error instead of leaving
    the peer to diagnose a bare disconnect."""

    def __init__(self, limit: int) -> None:
        super().__init__(
            "incoming line exceeds the %d-byte limit" % limit
        )
        self.limit = limit


def new_request_id() -> str:
    return uuid.uuid4().hex[:12]


def encode_bytes(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def decode_bytes(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"))


# -- Message constructors ------------------------------------------------------------


def make_request(op: str, options: Optional[Dict] = None,
                 request_id: Optional[str] = None) -> Dict:
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id or new_request_id(),
        "op": op,
        "options": options or {},
    }


def make_progress(request_id: str, phase: str, **fields) -> Dict:
    message = {"id": request_id, "event": "progress", "phase": phase}
    message.update(fields)
    return message


def make_result(request_id: str, result: Dict) -> Dict:
    return {"id": request_id, "event": "result", "ok": True,
            "result": result}


def make_error(request_id: str, code: str, message: str,
               **fields) -> Dict:
    error = {"code": code, "message": message}
    error.update(fields)
    return {"id": request_id, "event": "result", "ok": False,
            "error": error}


# -- Framing -----------------------------------------------------------------------


def write_message(stream, message: Dict,
                  max_bytes: Optional[int] = None) -> None:
    """Serialize one message as a single NDJSON line and flush it.

    Key order is preserved, never sorted: module order inside
    ``options.sources`` is the link layout order, and reordering it in
    transit would change the built image."""
    if max_bytes is None:
        max_bytes = MAX_LINE_BYTES
    line = json.dumps(message, separators=(",", ":"))
    data = line.encode("utf-8")
    if len(data) + 1 > max_bytes:
        raise ProtocolError(
            "outgoing message of %d bytes exceeds the %d-byte line limit"
            % (len(data), max_bytes)
        )
    stream.write(data + b"\n")
    stream.flush()


def _drain_line(stream, max_bytes: int) -> None:
    """Consume the rest of an oversized line (bounded reads) so the
    stream stays in sync and the peer's blocked ``sendall`` completes
    instead of deadlocking against our full receive buffer."""
    while True:
        chunk = stream.readline(max_bytes)
        if not chunk or chunk.endswith(b"\n"):
            return


def read_message(stream,
                 max_bytes: Optional[int] = None) -> Optional[Dict]:
    """Read one NDJSON line; None on clean EOF.

    Raises :class:`LineTooLongError` on oversized lines (after
    draining them, so the caller can still send a structured error)
    and :class:`ProtocolError` on truncated final lines, undecodable
    bytes or non-object payloads.
    """
    if max_bytes is None:
        max_bytes = MAX_LINE_BYTES
    line = stream.readline(max_bytes + 1)
    if not line:
        return None
    if len(line) > max_bytes:
        if not line.endswith(b"\n"):
            _drain_line(stream, max_bytes)
        raise LineTooLongError(max_bytes)
    if not line.endswith(b"\n"):
        raise ProtocolError("truncated message (no trailing newline)")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("undecodable message: %s" % exc)
    if not isinstance(message, dict):
        raise ProtocolError(
            "expected a JSON object, got %s" % type(message).__name__
        )
    return message


def validate_request(message: Dict) -> None:
    """Check the request envelope; raises :class:`ProtocolError`."""
    version = message.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "unsupported protocol version %r (server speaks %d)"
            % (version, PROTOCOL_VERSION)
        )
    if not isinstance(message.get("id"), str) or not message["id"]:
        raise ProtocolError("request is missing a string 'id'")
    op = message.get("op")
    if op not in SESSION_OPS + (OP_STATUS, OP_PING, OP_SHUTDOWN):
        raise ProtocolError("unknown op %r" % op)
    if not isinstance(message.get("options", {}), dict):
        raise ProtocolError("'options' must be an object")
