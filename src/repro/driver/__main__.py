"""mllc: the command-line compiler driver.

HP-UX-flavoured flags over MLL source files::

    python -m repro.driver build prog/*.mll -O4 -P profile.json --run
    python -m repro.driver train prog/*.mll -o profile.json
    python -m repro.driver objdump prog/main.mll

Subcommands:

* ``build``  -- compile + link (optionally execute) a set of modules;
* ``train``  -- build instrumented (+I), run, write a profile database;
* ``objdump``-- print a module's IL after the frontend.

Module names derive from file stems; a file named ``main.mll`` (or any
module defining ``main``) provides the entry point.

``build --daemon`` routes the request to a running build daemon
(:mod:`repro.serve`) over its UNIX socket, falling back to in-process
compilation when none is running; output is identical either way.
``build --farm HOST:PORT`` routes it to a compile-farm coordinator
(:mod:`repro.farm`) over authenticated TCP instead -- an explicit
endpoint, so an unreachable farm fails the build rather than falling
back silently.  Images are byte-identical down every path.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List

from ..frontend import compile_source, detect_language
from ..ir.printer import format_module
from .compiler import CompileSession, train as train_profile
from .options import VALID_HLO_BACKENDS, CompilerOptions
from .report import build_summary, render_build_summary
from ..profiles.database import ProfileDatabase


def _read_sources(paths: List[str]) -> Dict[str, str]:
    """Read sources; .mfl files pick the FORTRAN-ish frontend, .mll the
    C-ish one, anything else is auto-detected."""
    sources: Dict[str, str] = {}
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        if name in sources:
            raise SystemExit("duplicate module name %r" % name)
        with open(path, "r", encoding="utf-8") as handle:
            sources[name] = handle.read()
    if not sources:
        raise SystemExit("no source files given")
    return sources


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1, rejected with a clear message.

    Validating at the parser keeps ``-j 0`` (and friends) to a
    one-line usage error instead of a traceback from deep inside the
    scheduler or the options constructor.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a positive integer, got %r" % text
        )
    if value < 1:
        raise argparse.ArgumentTypeError(
            "must be >= 1 (got %d)" % value
        )
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected an integer >= 0, got %r" % text
        )
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0 (got %d)" % value)
    return value


def _naim_config_from_args(args: argparse.Namespace):
    """NaimConfig carrying the repository I/O knobs (None = defaults)."""
    from ..naim.config import NaimConfig

    defaults = NaimConfig()
    compress = getattr(args, "repo_compress", defaults.repo_compress_level)
    segment_mb = getattr(args, "repo_segment_mb",
                         defaults.repo_segment_bytes // (1024 * 1024))
    depth = getattr(args, "prefetch_depth", defaults.repo_prefetch_depth)
    if (compress == defaults.repo_compress_level
            and segment_mb * 1024 * 1024 == defaults.repo_segment_bytes
            and depth == defaults.repo_prefetch_depth):
        return None
    return NaimConfig(
        repo_compress_level=compress,
        repo_segment_bytes=segment_mb * 1024 * 1024,
        repo_prefetch_depth=depth,
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("files", nargs="+", help="MLL source files")
    parser.add_argument(
        "-O", dest="opt_level", type=int, default=2, choices=(0, 1, 2, 4),
        help="optimization level (4 = link-time CMO)",
    )
    parser.add_argument(
        "-P", dest="profile", default=None, metavar="DB.json",
        help="profile database to use (+P)",
    )
    parser.add_argument(
        "--selectivity", type=float, default=None, metavar="PCT",
        help="coarse-grained selectivity percentage (needs -P)",
    )
    parser.add_argument("--checked", action="store_true",
                        help="fail the build on interface mismatches")
    parser.add_argument(
        "-j", "--jobs", type=_positive_int, default=1, metavar="N",
        help="compile-task workers (1 = serial; output is identical)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="TRACE.json",
        help="write a Chrome trace_event JSON of the build",
    )
    parser.add_argument(
        "--hlo-jobs", type=_positive_int, default=1, metavar="N",
        help="workers for the partitioned link-time optimization "
             "backend (1 = serial; output is byte-identical)",
    )
    parser.add_argument(
        "--partitions", type=_positive_int, default=None, metavar="N",
        help="partition count for the parallel backend "
             "(default: 4x --hlo-jobs)",
    )
    parser.add_argument(
        "--hlo-backend", choices=VALID_HLO_BACKENDS,
        default="auto", metavar="BACKEND",
        help="where LTRANS partitions run: processes (worker "
             "processes; real CPU parallelism) or auto (processes "
             "when >1 effective worker, else the link process; "
             "default). Output is byte-identical either way.",
    )
    parser.add_argument(
        "--repo-compress", type=int, default=6, choices=range(0, 10),
        metavar="LEVEL",
        help="zlib level for NAIM pack-repository entries "
             "(0 disables compression; default 6)",
    )
    parser.add_argument(
        "--repo-segment-mb", type=_positive_int, default=8, metavar="MB",
        help="pack-repository segment rollover size in MiB (default 8)",
    )
    parser.add_argument(
        "--prefetch-depth", type=_nonnegative_int, default=1, metavar="N",
        help="routines fetched ahead by the loader's background "
             "prefetch pipeline (0 = synchronous fetches; default 1)",
    )
    parser.add_argument(
        "--profile-feed", default=None, metavar="NAME",
        help="join the daemon's named continuous-profile feed: the "
             "build uses the feed's live decayed database and the "
             "selectivity controller's current threshold, and "
             "registers the project for ingest-triggered "
             "re-optimization (needs --daemon or --farm)",
    )
    parser.add_argument(
        "--profile-hot", action="store_true",
        help="profile the compiler's own hot paths during the build "
             "(cProfile; slower, output unchanged) and print a flat "
             "report",
    )


def _print_summary(summary: Dict[str, object]) -> None:
    out_lines, err_lines = render_build_summary(summary)
    for line in out_lines:
        print(line)
    for line in err_lines:
        print(line, file=sys.stderr)


def _print_run(result) -> None:
    print("run: value=%d cycles=%d instrs=%d calls=%d"
          % (result.value, result.cycles, result.instructions,
             result.calls))


def _daemon_build(args: argparse.Namespace, sources: Dict[str, str],
                  client=None) -> int:
    """One build via the daemon; assumes a daemon answered the ping."""
    from ..linker.objects import decode_executable
    from ..serve.client import DaemonClient, build_options_from_args
    from ..vm.machine import run_image

    if client is None:
        client = DaemonClient.from_env()
    result = client.build(build_options_from_args(args, sources))
    _print_summary(result["summary"])
    hot = (result.get("stats") or {}).get("hot_profile")
    if hot:
        from ..bench.profile_hooks import render_hot_report
        for line in render_hot_report(hot):
            print(line)
    image = result["image"]
    if args.emit_image:
        with open(args.emit_image, "wb") as handle:
            handle.write(image)
        print("image: %d bytes -> %s" % (len(image), args.emit_image))
    if args.run:
        _print_run(run_image(decode_executable(image)))
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    sources = _read_sources(args.files)
    incremental = args.incremental or args.state_dir is not None

    if args.farm:
        # An explicit endpoint is a promise, not a hint: a farm the
        # user named but cannot be reached is an error, never a silent
        # in-process fallback (unlike --daemon, which is opportunistic).
        from ..farm import FarmClient
        from ..farm.coordinator import default_farm_root
        from ..farm.transport import resolve_token
        from ..serve.client import DaemonError

        client = FarmClient(
            args.farm,
            token=resolve_token(args.farm_token,
                                root=default_farm_root()),
        )
        try:
            return _daemon_build(args, sources, client=client)
        except DaemonError as exc:
            print("farm: %s" % exc, file=sys.stderr)
            return 1

    if args.daemon and not args.trace_out:
        # Transparent daemon path: only taken when a daemon answers;
        # anything else falls through to the in-process build below.
        # (--trace-out stays in-process: the trace lives server-side.)
        from ..serve.client import DaemonClient, DaemonError

        client = DaemonClient.from_env()
        if client.available():
            try:
                return _daemon_build(args, sources)
            except DaemonError as exc:
                print("daemon: %s; building in-process" % exc,
                      file=sys.stderr)

    if args.profile_feed:
        # Feeds live in a daemon's warm state; a cold in-process build
        # has no database or controller to join, so say so and build
        # without one rather than failing the compile.
        print("--profile-feed %s ignored: no daemon answered, feeds "
              "need --daemon or --farm" % args.profile_feed,
              file=sys.stderr)

    profile_db = None
    if args.profile:
        profile_db = ProfileDatabase.load(args.profile)
    options = CompilerOptions(
        opt_level=args.opt_level,
        pbo=profile_db is not None,
        selectivity_percent=args.selectivity,
        checked=args.checked,
        hlo_jobs=args.hlo_jobs,
        hlo_partitions=args.partitions,
        hlo_backend=args.hlo_backend,
        naim=_naim_config_from_args(args),
    )
    session = CompileSession(options, jobs=args.jobs,
                             incremental=incremental,
                             state_dir=args.state_dir)
    build, report, _stats = session.build(
        sources, profile_db=profile_db, profile_hot=args.profile_hot,
    )
    _print_summary(build_summary(
        options, len(sources), build, report=report, events=session.events,
        jobs=args.jobs, incremental=session.incremental,
    ))
    if _stats.hot_profile:
        from ..bench.profile_hooks import render_hot_report
        for line in render_hot_report(_stats.hot_profile):
            print(line)
    if args.emit_image:
        from ..linker.objects import encode_executable

        data = encode_executable(build.executable)
        with open(args.emit_image, "wb") as handle:
            handle.write(data)
        print("image: %d bytes -> %s" % (len(data), args.emit_image))
    if args.trace_out:
        session.events.write_chrome_trace(args.trace_out)
        print("trace: %d events -> %s" % (len(session.events.events),
                                          args.trace_out))
    if args.run:
        _print_run(build.run())
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    sources = _read_sources(args.files)
    database = train_profile(sources, [None] * args.runs)
    database.save(args.output)
    hottest = ", ".join(
        "%s(%d)" % (name, weight)
        for name, weight in database.hottest_routines(5)
    )
    print("trained %d run(s) -> %s" % (args.runs, args.output))
    print("hottest: %s" % hottest)
    return 0


def cmd_objdump(args: argparse.Namespace) -> int:
    for path in args.files:
        name, extension = os.path.splitext(os.path.basename(path))
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        if extension == ".mfl":
            language = "mfl"
        elif extension == ".mll":
            language = "mll"
        else:
            language = detect_language(text)
        module = compile_source(text, name, language)
        print(format_module(module))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.driver",
        description="MLL compiler with cross-module optimization",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    build_parser = subparsers.add_parser("build", help="compile and link")
    _add_common(build_parser)
    build_parser.add_argument("--run", action="store_true",
                              help="execute the image after linking")
    build_parser.add_argument(
        "--incremental", action="store_true",
        help="summary-based incremental CMO: reuse cached per-module "
             "codegen when consumed cross-module facts are unchanged",
    )
    build_parser.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="persist incremental state (objects, summaries, codegen "
             "cache) in DIR across runs; implies --incremental",
    )
    build_parser.add_argument(
        "--emit-image", default=None, metavar="IMAGE.bin",
        help="write the encoded executable image to a file "
             "(canonical bytes; byte-compare serial vs parallel builds)",
    )
    build_parser.add_argument(
        "--daemon", action="store_true",
        help="build via a running repro.serve daemon (warm caches); "
             "falls back to in-process compilation if none is running",
    )
    build_parser.add_argument(
        "--farm", default=None, metavar="HOST:PORT",
        help="build via a repro.farm coordinator over TCP "
             "(fails, never falls back, when it cannot be reached)",
    )
    build_parser.add_argument(
        "--farm-token", default=None, metavar="SECRET",
        help="farm shared secret (default: $REPRO_FARM_TOKEN, else "
             "the local coordinator root's farm.token)",
    )
    build_parser.set_defaults(func=cmd_build)

    train_parser = subparsers.add_parser(
        "train", help="build +I, run, write a profile database"
    )
    train_parser.add_argument("files", nargs="+", help="MLL source files")
    train_parser.add_argument("-o", dest="output", default="profile.json",
                              help="output database path")
    train_parser.add_argument("--runs", type=_positive_int, default=1,
                              help="training runs to merge")
    train_parser.set_defaults(func=cmd_train)

    objdump_parser = subparsers.add_parser(
        "objdump", help="print a module's IL"
    )
    objdump_parser.add_argument("files", nargs="+", help="MLL source files")
    objdump_parser.set_defaults(func=cmd_objdump)

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
