"""Farm transport: authenticated NDJSON over TCP.

The wire format is the build protocol's length-bounded NDJSON framing
(:mod:`.protocol`) over TCP, with one **hello** exchange before
anything else:

* connector -> listener: ``{"farm": 2, "role": ..., "token": ...}``
* listener -> connector: ``{"ok": true, "role": ...}`` or
  ``{"ok": false, "error": ...}`` followed by a close.

Roles are ``client`` (one build request, the existing protocol),
``worker`` (a job loop driven by the coordinator) and ``store``
(blob requests against the shared content-addressed store).  Tokens are
compared with :func:`hmac.compare_digest`; the default token is
generated once per coordinator root and readable only by its owner,
so same-user-same-host setups (tests, CI, the benchmark) need no
explicit secret handling.

Per-connection read limits: the hello must fit
:data:`HELLO_MAX_BYTES` -- an unauthenticated peer cannot make the
coordinator buffer a quarter-gigabyte line -- while authenticated
streams use the protocol-wide limit.
"""

from __future__ import annotations

import hmac
import os
import secrets
import socket
from typing import Dict, Optional, Tuple

from .protocol import ProtocolError, read_message, write_message

#: Farm handshake version; 2 speaks the hash-keyed store ops of
#: :mod:`repro.farm.store`.
FARM_VERSION = 2

#: Connection roles.
ROLE_CLIENT = "client"
ROLE_WORKER = "worker"
ROLE_STORE = "store"
ROLES = (ROLE_CLIENT, ROLE_WORKER, ROLE_STORE)

#: Read limit for the unauthenticated hello line.
HELLO_MAX_BYTES = 64 * 1024

#: Name of the auto-generated shared-secret file under the
#: coordinator's state root.
TOKEN_FILENAME = "farm.token"


class AuthError(Exception):
    """A hello that must not be honoured (bad token, role, version)."""


def parse_endpoint(endpoint: str,
                   default_port: int = 7633) -> Tuple[str, int]:
    """``"host:port"`` (or bare ``"host"``) -> ``(host, port)``."""
    text = endpoint.strip()
    if not text:
        raise ValueError("empty farm endpoint")
    if ":" in text:
        host, _, port_text = text.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError("bad farm endpoint %r" % endpoint)
    else:
        host, port = text, default_port
    if not 0 <= port <= 65535:
        raise ValueError("bad farm port %d" % port)
    return host or "127.0.0.1", port


# -- Tokens ------------------------------------------------------------------------


def token_path(root: str) -> str:
    return os.path.join(root, TOKEN_FILENAME)


def ensure_token(root: str) -> str:
    """The root's shared secret, generating it on first use (0600)."""
    path = token_path(root)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            token = handle.read().strip()
        if token:
            return token
    except OSError:
        pass
    os.makedirs(root, exist_ok=True)
    token = secrets.token_hex(16)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    try:
        os.write(fd, (token + "\n").encode("ascii"))
    finally:
        os.close(fd)
    return token


def resolve_token(explicit: Optional[str],
                  root: Optional[str] = None) -> Optional[str]:
    """Token precedence: explicit flag, ``$REPRO_FARM_TOKEN``, the
    root's token file (created if missing), else None."""
    if explicit:
        return explicit
    env = os.environ.get("REPRO_FARM_TOKEN")
    if env:
        return env
    if root is not None:
        return ensure_token(root)
    return None


# -- Hello exchange ----------------------------------------------------------------


def make_hello(role: str, token: Optional[str], **fields) -> Dict:
    hello = {"farm": FARM_VERSION, "role": role,
             "token": token or ""}
    hello.update(fields)
    return hello


def check_hello(hello: Dict, token: Optional[str]) -> str:
    """Validate an incoming hello; returns its role.

    Raises :class:`AuthError` on version skew, unknown roles, or a
    token mismatch (constant-time compare)."""
    if hello.get("farm") != FARM_VERSION:
        raise AuthError(
            "unsupported farm version %r (coordinator speaks %d)"
            % (hello.get("farm"), FARM_VERSION)
        )
    role = hello.get("role")
    if role not in ROLES:
        raise AuthError("unknown role %r" % role)
    offered = hello.get("token")
    if not isinstance(offered, str):
        raise AuthError("missing token")
    if not hmac.compare_digest(offered, token or ""):
        raise AuthError("bad token")
    return role


def connect(host: str, port: int, role: str, token: Optional[str],
            timeout: Optional[float] = 10.0,
            **fields) -> Tuple[socket.socket, "socket.SocketIO"]:
    """Dial the coordinator and authenticate; returns (socket, stream).

    The returned stream (``makefile("rwb")``) has the hello already
    exchanged and acknowledged; callers speak their role's protocol
    from the first byte.  Raises :class:`AuthError` when the
    coordinator refuses the hello and :class:`OSError` for transport
    failures."""
    conn = socket.create_connection((host, port), timeout=timeout)
    try:
        stream = conn.makefile("rwb")
        write_message(stream, make_hello(role, token, **fields),
                      max_bytes=HELLO_MAX_BYTES)
        try:
            answer = read_message(stream, max_bytes=HELLO_MAX_BYTES)
        except ProtocolError as exc:
            raise AuthError("bad coordinator handshake: %s" % exc)
        if answer is None:
            raise AuthError("coordinator closed during handshake")
        if not answer.get("ok"):
            raise AuthError(
                answer.get("error", "coordinator refused the connection")
            )
        return conn, stream
    except BaseException:
        conn.close()
        raise


def serve_hello(stream, token: Optional[str]) -> Optional[Dict]:
    """Listener side: read + check one hello, answer it.

    Returns the hello dict on success; None when the peer failed
    authentication or sent garbage (an answer saying why was already
    written when possible)."""
    try:
        hello = read_message(stream, max_bytes=HELLO_MAX_BYTES)
    except ProtocolError as exc:
        _try_write(stream, {"ok": False, "error": str(exc)})
        return None
    if hello is None:
        return None
    try:
        role = check_hello(hello, token)
    except AuthError as exc:
        _try_write(stream, {"ok": False, "error": str(exc)})
        return None
    if not _try_write(stream, {"ok": True, "role": role,
                               "farm": FARM_VERSION}):
        return None
    return hello


def _try_write(stream, message: Dict) -> bool:
    try:
        write_message(stream, message, max_bytes=HELLO_MAX_BYTES)
        return True
    except (OSError, ValueError, ProtocolError):
        return False
