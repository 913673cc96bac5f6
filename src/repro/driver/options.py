"""User-facing compiler options, mirroring the HP-UX flag set.

===========  =====================================================
HP-UX flag   Here
===========  =====================================================
+O0 .. +O2   ``opt_level`` 0-2 (intraprocedural ladder)
+O4          ``opt_level`` 4 (link-time CMO through HLO)
+P           ``pbo=True`` (use a profile database)
+I           ``instrument=True`` (build with counting probes)
(§5)         ``selectivity_percent`` (coarse-grained selectivity)
===========  =====================================================

Every ``build`` setting that reaches the compiler is declared once, as
a row of :data:`BUILD_KNOBS`: the row is the CLI flag, the coordinator
request key and its validation, a :class:`BuildConfig` field and (when
``session`` is set) a term of the warm-session key.
"""

from __future__ import annotations

import argparse
import os
from collections import namedtuple
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from ..hlo.options import HloOptions
from ..naim.config import NaimConfig
from ..vm.cost import CostModel

VALID_OPT_LEVELS = (0, 1, 2, 4)
VALID_HLO_BACKENDS = ("auto", "processes")


class CompilerOptions:
    """Policy for one build."""

    def __init__(
        self,
        opt_level: int = 2,
        pbo: bool = False,
        instrument: bool = False,
        selectivity_percent: Optional[float] = None,
        naim: Optional[NaimConfig] = None,
        hlo: Optional[HloOptions] = None,
        cost_model: Optional[CostModel] = None,
        checked: bool = False,
        cmo_modules: Optional[frozenset] = None,
        repository_dir: Optional[str] = None,
        multi_layer: bool = False,
        hlo_jobs: int = 1,
        hlo_partitions: Optional[int] = None,
        hlo_backend: str = "auto",
    ) -> None:
        if opt_level not in VALID_OPT_LEVELS:
            raise ValueError(
                "opt_level must be one of %r" % (VALID_OPT_LEVELS,)
            )
        if selectivity_percent is not None and not 0 <= selectivity_percent <= 100:
            raise ValueError("selectivity_percent must be within [0, 100]")
        if instrument and opt_level == 4:
            raise ValueError(
                "instrumented builds use intraprocedural levels (+O2 +I); "
                "profiles feed later +O4 builds"
            )
        self.opt_level = opt_level
        self.pbo = pbo
        self.instrument = instrument
        self.selectivity_percent = selectivity_percent
        self.naim = naim or NaimConfig()
        self.hlo = hlo or HloOptions()
        self.cost_model = cost_model or CostModel()
        self.checked = checked
        #: Explicit CMO module set (triage/bench override of selectivity).
        self.cmo_modules = frozenset(cmo_modules) if cmo_modules else None
        #: Directory for the NAIM disk repository (None = in-memory).
        self.repository_dir = repository_dir
        #: Paper §8 extension: tier non-CMO modules (warm +O2, cold +O1).
        self.multi_layer = multi_layer
        if hlo_jobs < 1:
            raise ValueError("hlo_jobs must be >= 1")
        if hlo_partitions is not None and hlo_partitions < 1:
            raise ValueError("hlo_partitions must be >= 1")
        #: Workers for the partitioned LTRANS backend (1 = the serial
        #: reference path).  Output is byte-identical either way, so
        #: neither knob enters :meth:`describe` (and hence no artifact
        #: or incremental fingerprint).
        self.hlo_jobs = hlo_jobs
        #: Partition count override (None = derived from ``hlo_jobs``).
        self.hlo_partitions = hlo_partitions
        if hlo_backend not in VALID_HLO_BACKENDS:
            raise ValueError(
                "hlo_backend must be one of %r, not %r"
                % (VALID_HLO_BACKENDS, hlo_backend)
            )
        #: Where LTRANS partitions execute: "processes" (worker
        #: processes, real CPU parallelism) or "auto" (processes
        #: whenever more than one effective worker would run and the
        #: platform supports them, else the link process itself).
        #: Like the two knobs above it never affects output bytes, so
        #: it stays out of :meth:`describe`.
        self.hlo_backend = hlo_backend

    @property
    def use_partitioned_hlo(self) -> bool:
        """Whether the link should run the partitioned LTRANS backend."""
        return self.hlo_jobs > 1 or self.hlo_partitions is not None

    @property
    def is_cmo(self) -> bool:
        return self.opt_level == 4

    @property
    def llo_level(self) -> int:
        """The LLO ladder level backing this opt level."""
        return min(self.opt_level, 2)

    def describe(self) -> str:
        parts = ["+O%d" % self.opt_level]
        if self.pbo:
            parts.append("+P")
        if self.instrument:
            parts.append("+I")
        if self.selectivity_percent is not None:
            parts.append("sel=%.0f%%" % self.selectivity_percent)
        return " ".join(parts)

    def __repr__(self) -> str:
        return "<CompilerOptions %s>" % self.describe()


# -- Build knobs ---------------------------------------------------------------------
#
# Validators return a decoded request value (normalized) or raise
# ValueError("must be ...").  They are strict about type: JSON ``"no"``
# is not a boolean, ``true`` and ``4.0`` are not integers.


def _boolean(value):
    if type(value) is not bool:
        raise ValueError("must be true or false")
    return value


def at_least_one(value):
    if type(value) is not int or value < 1:
        raise ValueError("must be an integer >= 1")
    return value


def _percent(value):
    if type(value) not in (int, float) or not 0 <= value <= 100:
        raise ValueError("must be a number within [0, 100]")
    return value


def _text(value):
    if type(value) is not str or not value:
        raise ValueError("must be a non-empty string")
    return value


def _path(value):
    return os.path.abspath(_text(value))


def _one_of(choices):
    def valid(value):
        if type(value) is not type(choices[0]) or value not in choices:
            raise ValueError("must be one of %r" % (choices,))
        return value
    return valid


class Knob(NamedTuple):
    """One build knob; see the module docstring for what a row drives."""

    key: str  # argparse dest, request key and BuildConfig field
    flags: Tuple[str, ...]
    kind: type  # bool = a store_true flag; else CLI text -> kind(text)
    valid: Callable
    default: object
    session: bool  # do requests differing here need distinct sessions?
    help: str
    metavar: Optional[str] = None

    def check(self, value):
        """``value`` validated and normalized; ValueError names the key."""
        try:
            return self.valid(value)
        except ValueError as exc:
            raise ValueError(
                "'%s' %s, not %r" % (self.key, exc, value)
            ) from None


BUILD_KNOBS = (
    Knob("opt_level", ("-O",), int, _one_of(VALID_OPT_LEVELS), 2, True,
         "optimization level (4 = link-time CMO)", "LEVEL"),
    Knob("profile_path", ("-P",), str, _path, None, False,
         "profile database to use (+P)", "DB.json"),
    Knob("selectivity", ("--selectivity",), float, _percent, None, True,
         "coarse-grained selectivity percentage (needs -P)", "PCT"),
    Knob("checked", ("--checked",), bool, _boolean, False, True,
         "fail the build on interface mismatches"),
    Knob("hlo_jobs", ("--hlo-jobs",), int, at_least_one, 1, True,
         "workers for the partitioned link-time optimization backend "
         "(1 = serial; output is byte-identical)", "N"),
    Knob("partitions", ("--partitions",), int, at_least_one, None, True,
         "partition count for the parallel backend "
         "(default: 4x --hlo-jobs)", "N"),
    Knob("hlo_backend", ("--hlo-backend",), str,
         _one_of(VALID_HLO_BACKENDS), "auto", True,
         "where LTRANS partitions run: processes (worker processes; "
         "real CPU parallelism) or auto (processes when >1 effective "
         "worker, else the link process; default). Output is "
         "byte-identical either way.", "BACKEND"),
    Knob("incremental", ("--incremental",), bool, _boolean, False, True,
         "summary-based incremental CMO: reuse cached per-module "
         "codegen when consumed cross-module facts are unchanged"),
    Knob("state_dir", ("--state-dir",), str, _path, None, True,
         "persist incremental state (objects, summaries, codegen "
         "cache) in DIR across runs; implies --incremental", "DIR"),
)


def flag_type(kind: type, check: Callable) -> Callable:
    """An argparse ``type=``: a value ``check`` rejects is a one-line
    usage error, not a traceback from deep inside the build."""
    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = text  # not even the right kind: check says what is
        try:
            return check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return convert


def add_build_flags(parser: argparse.ArgumentParser) -> None:
    for knob in BUILD_KNOBS:
        if knob.kind is bool:
            parser.add_argument(*knob.flags, dest=knob.key,
                                action="store_true", help=knob.help)
        else:
            parser.add_argument(
                *knob.flags, dest=knob.key, default=knob.default,
                type=flag_type(knob.kind, knob.check),
                metavar=knob.metavar, help=knob.help,
            )


def build_request(args: argparse.Namespace,
                  sources: Dict[str, str]) -> Dict:
    """Request options for one ``build`` invocation.

    Sources travel by value; paths were made absolute when the flags
    were parsed, so they mean the same file to a coordinator whose working
    directory differs.  Knobs left at their default are omitted."""
    request: Dict = {"sources": sources}
    for knob in BUILD_KNOBS:
        value = getattr(args, knob.key)
        if value != knob.default:
            request[knob.key] = value
    return request


class BuildConfig(namedtuple("_BuildConfig",
                             [knob.key for knob in BUILD_KNOBS])):
    """One validated build request: a value for every :data:`BUILD_KNOBS`
    row.  The cold CLI and the coordinator both derive
    their :class:`CompilerOptions` and session from this one object."""

    __slots__ = ()

    @property
    def pbo(self) -> bool:
        return self.profile_path is not None

    def compiler_options(self) -> CompilerOptions:
        return CompilerOptions(
            opt_level=self.opt_level,
            pbo=self.pbo,
            selectivity_percent=self.selectivity,
            checked=self.checked,
            hlo_jobs=self.hlo_jobs,
            hlo_partitions=self.partitions,
            hlo_backend=self.hlo_backend,
        )

    def session_key(self) -> Tuple:
        """Equal for two requests exactly when one warm session can
        serve both: *which* profile is used may change between builds,
        *whether* one is used may not."""
        return (self.pbo,) + tuple(
            getattr(self, knob.key) for knob in BUILD_KNOBS if knob.session
        )


def parse_build_request(options: Dict) -> BuildConfig:
    """Validate request options; ValueError names the offending key.

    A key the table does not have is rejected, so a stale client or a
    typo never silently builds with defaults.  An omitted key, or JSON
    ``null``, takes the row's default."""
    # ``sources`` is the payload, not a knob; whoever receives the
    # request validates it.
    unknown = sorted(set(options) - set(BuildConfig._fields) - {"sources"})
    if unknown:
        raise ValueError(
            "unknown build option %s" % ", ".join(map(repr, unknown))
        )
    values = {}
    for knob in BUILD_KNOBS:
        value = options.get(knob.key)
        values[knob.key] = (
            knob.default if value is None else knob.check(value)
        )
    values["incremental"] = (
        values["incremental"] or values["state_dir"] is not None
    )
    return BuildConfig(**values)
