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

``build --farm HOST:PORT`` routes the build to a running coordinator
(:mod:`repro.farm`) over authenticated TCP, where it runs on a warm
build engine -- on the coordinator alone, or with its LTRANS partitions on
attached workers.  The endpoint is explicit, so an unreachable
coordinator fails the build rather than falling back silently.
Images are byte-identical either way.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List

from ..frontend import compile_source, detect_language
from ..ir.printer import format_module
from .build import BuildEngine, BuildError
from .compiler import train as train_profile
from .options import (
    add_build_flags,
    at_least_one,
    build_request,
    flag_type,
    parse_build_request,
)
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


def _farm_build(args: argparse.Namespace, sources: Dict[str, str]) -> int:
    """One build on the coordinator at ``--farm``."""
    from ..farm import FarmClient, FarmError
    from ..farm.coordinator import default_farm_root
    from ..farm.transport import resolve_token
    from ..linker.objects import decode_executable
    from ..vm.machine import run_image

    if args.trace_out:
        print("--trace-out %s ignored: a --farm build runs on the "
              "coordinator, the trace lives server-side"
              % args.trace_out, file=sys.stderr)
    client = FarmClient(
        args.farm,
        token=resolve_token(args.farm_token, root=default_farm_root()),
    )
    try:
        result = client.build(build_request(args, sources))
    except FarmError as exc:
        print("farm: %s" % exc, file=sys.stderr)
        return 1
    _print_summary(result["summary"])
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
    if args.selectivity is not None and not args.profile_path:
        print("--selectivity %g ignored: coarse-grained selection needs "
              "a profile (-P)" % args.selectivity, file=sys.stderr)

    if args.farm:
        return _farm_build(args, sources)

    # The same parse the coordinator applies to the request it
    # receives, so the two cannot configure a build differently.
    config = parse_build_request(build_request(args, sources))
    profile_db = None
    if config.profile_path:
        profile_db = ProfileDatabase.load(config.profile_path)
    engine = BuildEngine(
        config.compiler_options(), incremental=config.incremental,
        state_dir=config.state_dir,
    )
    try:
        build, report = engine.build(sources, profile_db=profile_db)
    except BuildError as exc:
        for step, failure in exc.failures.items():
            print("error: %s: %s" % (step, failure), file=sys.stderr)
        return 1
    finally:
        engine.close()
    _print_summary(build_summary(
        engine.compiler.options, len(sources), build, report=report,
        incremental=config.incremental,
    ))
    if args.emit_image:
        from ..linker.objects import encode_executable

        data = encode_executable(build.executable)
        with open(args.emit_image, "wb") as handle:
            handle.write(data)
        print("image: %d bytes -> %s" % (len(data), args.emit_image))
    if args.trace_out:
        engine.events.write_chrome_trace(args.trace_out)
        print("trace: %d events -> %s" % (len(engine.events.events),
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
    build_parser.add_argument("files", nargs="+", help="MLL source files")
    add_build_flags(build_parser)
    # Flags that never leave the client:
    build_parser.add_argument(
        "--trace-out", default=None, metavar="TRACE.json",
        help="write a Chrome trace_event JSON of the build",
    )
    build_parser.add_argument("--run", action="store_true",
                              help="execute the image after linking")
    build_parser.add_argument(
        "--emit-image", default=None, metavar="IMAGE.bin",
        help="write the encoded executable image to a file "
             "(canonical bytes; byte-compare serial vs parallel builds)",
    )
    build_parser.add_argument(
        "--farm", default=None, metavar="HOST:PORT",
        help="build on a running repro.farm coordinator over TCP "
             "(warm build engines; fails, never falls back, when it cannot "
             "be reached)",
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
    train_parser.add_argument("--runs", type=flag_type(int, at_least_one),
                              default=1,
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
