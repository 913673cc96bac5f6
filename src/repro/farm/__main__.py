"""repro-farm: run and manage the build server and its farm.

::

    python -m repro.farm coordinator               # serve in the foreground
    python -m repro.farm worker --connect H:P      # attach N job slots
    python -m repro.farm status --connect H:P      # one-line + JSON status
    python -m repro.farm stop --connect H:P        # drain the coordinator

The coordinator writes its shared secret to ``<root>/farm.token``
(0600) on first start; same-user-same-host workers and clients pick
it up automatically, remote ones pass ``--token`` or set
``$REPRO_FARM_TOKEN``.  Builds go through the normal driver:
``python -m repro.driver build --farm HOST:PORT ...``.  A coordinator
with no workers attached is a warm build server: it keeps sessions,
caches and an LTRANS process pool resident and runs every build
itself.
"""

from __future__ import annotations

import argparse
import json
import sys

from .client import FarmClient, FarmError
from .coordinator import DEFAULT_PORT, default_farm_root, run_coordinator
from .transport import parse_endpoint, resolve_token


def _add_connect(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--connect", default="127.0.0.1:%d" % DEFAULT_PORT,
        metavar="HOST:PORT", help="coordinator endpoint",
    )
    parser.add_argument(
        "--token", default=None, metavar="SECRET",
        help="shared secret (default: $REPRO_FARM_TOKEN, else the "
             "local coordinator root's farm.token)",
    )


def _client(args: argparse.Namespace) -> FarmClient:
    token = resolve_token(args.token, root=default_farm_root())
    return FarmClient(args.connect, token=token)


def cmd_coordinator(args: argparse.Namespace) -> int:
    if args.max_sessions < 1 or args.queue_depth < 0:
        raise SystemExit(
            "--max-sessions must be >= 1 and --queue-depth >= 0"
        )
    return run_coordinator(
        host=args.host, port=args.port, state_root=args.root,
        token=args.token, max_sessions=args.max_sessions,
        queue_depth=args.queue_depth,
        request_timeout=args.request_timeout,
        retry_limit=args.retry_limit,
    )


def cmd_worker(args: argparse.Namespace) -> int:
    from .worker import run_worker
    host, port = parse_endpoint(args.connect)
    token = resolve_token(args.token, root=default_farm_root())
    return run_worker(
        host, port, token=token, jobs=args.jobs, label=args.label,
        reconnect_delay=args.reconnect_delay,
    )


def cmd_status(args: argparse.Namespace) -> int:
    client = _client(args)
    try:
        status = client.status()
    except FarmError as exc:
        print("no coordinator on %s (%s)" % (args.connect, exc))
        return 1
    workers = status.get("workers", [])
    queue = status.get("queue", {})
    print("coordinator pid %s on %s: %d builds served, %d worker "
          "slot(s), %d job(s) done%s"
          % (status.get("pid"), status.get("endpoint"),
             status.get("builds_served", 0), len(workers),
             queue.get("completed", 0),
             " [draining]" if status.get("draining") else ""))
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0


def cmd_stop(args: argparse.Namespace) -> int:
    client = _client(args)
    try:
        client.shutdown()
    except FarmError as exc:
        print("no coordinator on %s (%s)" % (args.connect, exc))
        return 1
    print("coordinator on %s draining" % args.connect)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.farm",
        description="distributed compile farm: coordinator, workers, "
                    "shared artifact store",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    coord = subparsers.add_parser(
        "coordinator", help="serve a coordinator in the foreground"
    )
    coord.add_argument("--host", default="127.0.0.1",
                       help="listen address")
    coord.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help="listen port (0 = ephemeral)")
    coord.add_argument("--root", default=None, metavar="DIR",
                       help="state root (default: $REPRO_FARM_ROOT or "
                            "a per-user tmp dir)")
    coord.add_argument("--token", default=None, metavar="SECRET",
                       help="shared secret (default: auto-generated "
                            "under the root)")
    coord.add_argument("--max-sessions", type=int, default=2,
                       metavar="N",
                       help="concurrent build sessions before "
                            "requests queue")
    coord.add_argument("--queue-depth", type=int, default=4,
                       metavar="N",
                       help="queued requests before ServerBusy")
    coord.add_argument("--request-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-request wall-clock budget")
    coord.add_argument("--retry-limit", type=int, default=2,
                       metavar="N",
                       help="attempts per partition before the build "
                            "fails")
    coord.set_defaults(func=cmd_coordinator)

    worker = subparsers.add_parser(
        "worker", help="attach a worker daemon to a coordinator"
    )
    _add_connect(worker)
    worker.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="parallel job slots")
    worker.add_argument("--label", default=None,
                        help="worker label shown in status "
                             "(default: hostname)")
    worker.add_argument("--reconnect-delay", type=float, default=1.0,
                        metavar="SECONDS",
                        help="pause between reconnect attempts")
    worker.set_defaults(func=cmd_worker)

    status = subparsers.add_parser(
        "status", help="query a running coordinator"
    )
    _add_connect(status)
    status.set_defaults(func=cmd_status)

    stop = subparsers.add_parser(
        "stop", help="drain and stop a running coordinator"
    )
    _add_connect(stop)
    stop.set_defaults(func=cmd_stop)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
