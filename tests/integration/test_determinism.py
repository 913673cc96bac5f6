"""Reproducibility requirements (paper §6.2).

"The compiler must behave in exactly the same way when compiling the
same piece of code, using the same profile data, on a machine with the
same memory configuration from run to run" -- and our stronger model
guarantee: the generated code is identical *regardless* of the memory
configuration, since modeled memory never feeds codegen decisions.
"""

import functools
import hashlib
import json
import os

import pytest

from repro.driver.build import BuildEngine
from repro.driver.compiler import Compiler, train
from repro.driver.options import CompilerOptions
from repro.linker.objects import encode_executable
from repro.naim import NaimConfig, NaimLevel
from repro.synth import WorkloadConfig, generate


def image_signature(build):
    return [
        (i.op.value, None if i.subop is None else i.subop.value,
         i.rd, i.rs1, i.rs2, i.imm, i.imm2)
        for i in build.executable.code
    ]


@pytest.fixture(scope="module")
def app():
    return generate(
        WorkloadConfig("determinism", n_modules=8, routines_per_module=4,
                       n_features=3, dispatch_count=80, seed=17)
    )


@pytest.fixture(scope="module")
def profile(app):
    return train(app.sources, [app.make_input(seed=1)])


class TestRunToRun:
    def test_identical_builds(self, app, profile):
        options = CompilerOptions(opt_level=4, pbo=True)
        sig1 = image_signature(
            Compiler(options).build(app.sources, profile_db=profile)
        )
        sig2 = image_signature(
            Compiler(options).build(app.sources, profile_db=profile)
        )
        assert sig1 == sig2

    def test_identical_without_profiles(self, app):
        options = CompilerOptions(opt_level=4)
        sig1 = image_signature(Compiler(options).build(app.sources))
        sig2 = image_signature(Compiler(options).build(app.sources))
        assert sig1 == sig2


class TestMemoryConfigIndependence:
    @pytest.mark.parametrize(
        "naim",
        [
            NaimConfig.pinned(NaimLevel.OFF),
            NaimConfig.pinned(NaimLevel.IR_COMPACT, cache_pools=2),
            NaimConfig.pinned(NaimLevel.ST_COMPACT, cache_pools=4),
            NaimConfig.pinned(NaimLevel.OFFLOAD, cache_pools=1),
            NaimConfig(physical_memory_bytes=512 * 1024),
        ],
        ids=["off", "ir", "st", "offload", "auto-tiny"],
    )
    def test_code_identical_across_naim_configs(self, app, profile, naim):
        reference_sig = image_signature(
            Compiler(
                CompilerOptions(opt_level=4, pbo=True)
            ).build(app.sources, profile_db=profile)
        )
        sig = image_signature(
            Compiler(
                CompilerOptions(opt_level=4, pbo=True, naim=naim)
            ).build(app.sources, profile_db=profile)
        )
        assert sig == reference_sig

    def test_profile_round_trip_stable(self, app, profile):
        """Persisting and reloading the profile db changes nothing."""
        from repro.profiles import ProfileDatabase

        reloaded = ProfileDatabase.from_json(profile.to_json())
        options = CompilerOptions(opt_level=4, pbo=True)
        sig1 = image_signature(
            Compiler(options).build(app.sources, profile_db=profile)
        )
        sig2 = image_signature(
            Compiler(options).build(app.sources, profile_db=reloaded)
        )
        assert sig1 == sig2


# -- Golden images ------------------------------------------------------------
#
# The hashes in tests/fixtures/golden_images.json were produced by the
# body-walking WPA driver the summary driver replaced (PR 12): they are
# the frozen reference that driver used to provide live.  Each row is
# rebuilt through every execution shape and must land on the same bytes.

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "fixtures", "golden_images.json"
)
FIXTURE_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, "fixtures", "incr_demo"
)

#: row id -> (synth config kwargs or None for the incr_demo fixture,
#:            CompilerOptions kwargs).
GOLDEN_ROWS = {
    "incr_demo": (None, {}),
    "s3_m4": (dict(n_modules=4, routines_per_module=3, seed=3), {}),
    "s11_m6": (dict(n_modules=6, routines_per_module=4, seed=11), {}),
    "s29_m8": (dict(n_modules=8, routines_per_module=3, seed=29), {}),
    "s101_m5_wide": (dict(n_modules=5, routines_per_module=6, seed=101,
                          cross_module_fraction=0.8), {}),
    "s7_m6_mfl": (dict(n_modules=6, routines_per_module=3, seed=7,
                       mfl_fraction=0.5), {}),
    "s1234_m10": (dict(n_modules=10, routines_per_module=3, seed=1234), {}),
    "s17_m8_pbo": (dict(n_modules=8, routines_per_module=4, seed=17),
                   dict(pbo=True)),
    "s17_m8_pbo_sel20": (dict(n_modules=8, routines_per_module=4, seed=17),
                         dict(pbo=True, selectivity_percent=20)),
    "s42_m7_offload": (dict(n_modules=7, routines_per_module=4, seed=42),
                       dict(naim=(NaimLevel.OFFLOAD, 2))),
}


@functools.lru_cache(maxsize=None)
def golden_inputs(row):
    """(sources, profile_db or None) for one golden row."""
    synth_kwargs, option_kwargs = GOLDEN_ROWS[row]
    if synth_kwargs is None:
        sources = {}
        for entry in sorted(os.listdir(FIXTURE_DIR)):
            with open(os.path.join(FIXTURE_DIR, entry)) as handle:
                sources[os.path.splitext(entry)[0]] = handle.read()
        return sources, None
    app = generate(WorkloadConfig(
        "golden_" + row, n_features=3, dispatch_count=60, input_size=16,
        **synth_kwargs
    ))
    profile_db = None
    if option_kwargs.get("pbo"):
        profile_db = train(app.sources, [app.make_input(seed=1)])
    return app.sources, profile_db


def golden_options(row, **extra):
    kwargs = dict(GOLDEN_ROWS[row][1])
    naim = kwargs.pop("naim", None)
    if naim is not None:
        kwargs["naim"] = NaimConfig.pinned(naim[0], cache_pools=naim[1])
    kwargs.update(extra)
    return CompilerOptions(opt_level=4, **kwargs)


def image_hash(build):
    return hashlib.sha256(encode_executable(build.executable)).hexdigest()


#: Compiler options per non-incremental execution shape.
GOLDEN_SHAPES = {
    "serial": {},
    "in-process": dict(hlo_partitions=8),
    "processes": dict(hlo_jobs=2, hlo_backend="processes"),
}


def golden_image_hashes(row, shape):
    """SHA-256 of every image the given execution shape produces."""
    sources, profile_db = golden_inputs(row)
    if shape == "incremental":
        engine = BuildEngine(golden_options(row), incremental=True)
        cold, _report = engine.build(sources, profile_db=profile_db)
        warm, _report = engine.build(sources, profile_db=profile_db)
        return [image_hash(cold), image_hash(warm)]
    build = Compiler(golden_options(row, **GOLDEN_SHAPES[shape])).build(
        sources, profile_db=profile_db
    )
    return [image_hash(build)]


@pytest.mark.parametrize("shape", sorted(GOLDEN_SHAPES) + ["incremental"])
@pytest.mark.parametrize("row", sorted(GOLDEN_ROWS))
def test_golden_image(row, shape):
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    for digest in golden_image_hashes(row, shape):
        assert digest == golden[row]
