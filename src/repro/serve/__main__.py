"""repro-serve: manage the build daemon from the command line.

::

    python -m repro.serve start            # spawn a daemon, wait for it
    python -m repro.serve status           # one-line + JSON status
    python -m repro.serve stop             # graceful drain + exit
    python -m repro.serve run              # serve in the foreground

``start`` forks a detached ``run`` and waits for the socket to answer;
``stop`` asks for a drain over the socket, falling back to SIGTERM via
the pidfile.  Socket and state-root default from ``$REPRO_SERVE_*``
(see :mod:`repro.serve.client`), so a plain
``python -m repro.driver build --daemon`` finds the daemon unaided.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

from .client import (
    DaemonClient,
    DaemonError,
    default_root,
    default_socket_path,
    pidfile_path,
)
from .daemon import run_daemon


def _add_paths(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--socket", default=None, metavar="PATH",
        help="UNIX socket path (default: $REPRO_SERVE_SOCKET or "
             "<root>/daemon.sock)",
    )
    parser.add_argument(
        "--root", default=None, metavar="DIR",
        help="state root for warm caches, pidfile and logs "
             "(default: $REPRO_SERVE_ROOT or a per-user tmp dir)",
    )


def _add_limits(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-sessions", type=int, default=2, metavar="N",
        help="concurrent build sessions before requests queue",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=4, metavar="N",
        help="queued requests before new ones get ServerBusy",
    )
    parser.add_argument(
        "--request-timeout", type=float, default=None, metavar="SECONDS",
        help="per-request wall-clock budget (default: unlimited)",
    )


def _client(args: argparse.Namespace) -> DaemonClient:
    return DaemonClient(args.socket or default_socket_path())


def cmd_run(args: argparse.Namespace) -> int:
    if args.max_sessions < 1 or args.queue_depth < 0:
        raise SystemExit(
            "--max-sessions must be >= 1 and --queue-depth >= 0"
        )
    return run_daemon(
        socket_path=args.socket, state_root=args.root,
        max_sessions=args.max_sessions, queue_depth=args.queue_depth,
        request_timeout=args.request_timeout,
    )


def cmd_start(args: argparse.Namespace) -> int:
    client = _client(args)
    if client.available():
        print("daemon already running on %s" % client.socket_path)
        return 0
    root = os.path.abspath(args.root or default_root())
    os.makedirs(root, exist_ok=True)
    log_path = os.path.join(root, "daemon.log")
    command = [sys.executable, "-m", "repro.serve", "run",
               "--max-sessions", str(args.max_sessions),
               "--queue-depth", str(args.queue_depth),
               "--root", root]
    if args.socket:
        command += ["--socket", args.socket]
    if args.request_timeout is not None:
        command += ["--request-timeout", str(args.request_timeout)]
    with open(log_path, "ab") as log:
        process = subprocess.Popen(
            command, stdout=log, stderr=log,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
    deadline = time.time() + args.wait
    while time.time() < deadline:
        if process.poll() is not None:
            print("daemon exited during startup (code %d); see %s"
                  % (process.returncode, log_path), file=sys.stderr)
            return 1
        if client.available():
            print("daemon started: pid %d on %s (log: %s)"
                  % (process.pid, client.socket_path, log_path))
            return 0
        time.sleep(0.1)
    print("daemon did not answer within %.0fs; see %s"
          % (args.wait, log_path), file=sys.stderr)
    return 1


def cmd_stop(args: argparse.Namespace) -> int:
    client = _client(args)
    root = os.path.abspath(args.root or default_root())
    pidfile = pidfile_path(root)
    stopped_via = None
    if client.available():
        try:
            client.shutdown()
            stopped_via = "drain request"
        except DaemonError:
            pass
    if stopped_via is None and os.path.exists(pidfile):
        try:
            with open(pidfile, "r", encoding="utf-8") as handle:
                pid = int(handle.read().strip())
            os.kill(pid, signal.SIGTERM)
            stopped_via = "SIGTERM to pid %d" % pid
        except (OSError, ValueError):
            pass
    if stopped_via is None:
        print("no daemon running on %s" % client.socket_path)
        return 0
    deadline = time.time() + args.wait
    while time.time() < deadline:
        if (not os.path.exists(client.socket_path)
                and not os.path.exists(pidfile)):
            print("daemon stopped (%s)" % stopped_via)
            return 0
        time.sleep(0.1)
    print("daemon still shutting down after %.0fs (%s)"
          % (args.wait, stopped_via), file=sys.stderr)
    return 1


def cmd_status(args: argparse.Namespace) -> int:
    client = _client(args)
    try:
        status = client.status()
    except DaemonError as exc:
        print("no daemon on %s (%s)" % (client.socket_path, exc))
        return 1
    admission = status.get("admission", {})
    print("daemon pid %s on %s: %d builds served, %d/%d sessions "
          "active, %d rejected%s"
          % (status.get("pid"), status.get("socket"),
             status.get("builds_served", 0),
             admission.get("active", 0),
             admission.get("max_sessions", 0),
             admission.get("rejected", 0),
             " [draining]" if status.get("draining") else ""))
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="persistent warm-state build daemon",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="serve in the foreground (SIGTERM drains)"
    )
    _add_paths(run_parser)
    _add_limits(run_parser)
    run_parser.set_defaults(func=cmd_run)

    start_parser = subparsers.add_parser(
        "start", help="spawn a detached daemon and wait for it"
    )
    _add_paths(start_parser)
    _add_limits(start_parser)
    start_parser.add_argument(
        "--wait", type=float, default=15.0, metavar="SECONDS",
        help="how long to wait for the daemon to answer",
    )
    start_parser.set_defaults(func=cmd_start)

    stop_parser = subparsers.add_parser(
        "stop", help="drain and stop a running daemon"
    )
    _add_paths(stop_parser)
    stop_parser.add_argument(
        "--wait", type=float, default=15.0, metavar="SECONDS",
        help="how long to wait for the drain to finish",
    )
    stop_parser.set_defaults(func=cmd_stop)

    status_parser = subparsers.add_parser(
        "status", help="query a running daemon"
    )
    _add_paths(status_parser)
    status_parser.set_defaults(func=cmd_status)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
