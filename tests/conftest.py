"""Shared fixtures: small known programs and pipeline helpers."""

from __future__ import annotations

import pytest

from repro.driver.compiler import Compiler, train
from repro.driver.options import CompilerOptions
from repro.frontend import compile_sources
from repro.hlo.options import HloOptions
from repro.interp import run_program

#: A three-module program with cross-module calls, globals, statics,
#: arrays, loops and branches -- the standard pipeline exercise.
CALC_SOURCES = {
    "math": """
static global factor = 3;
global calls = 0;

func scale(x) {
    calls = calls + 1;
    return x * factor;
}

func clamp(v, lo, hi) {
    if (v < lo) { return lo; }
    if (v > hi) { return hi; }
    return v;
}
""",
    "table": """
static global grid[8] = {5, 3, 8, 1, 9, 2, 7, 4};
global writes = 0;

func lookup(i) {
    return grid[i % 8];
}

func store_result(i, v) {
    writes = writes + 1;
    result_buf[i % 16] = v;
    return v;
}
""",
    "main": """
global result_buf[16];

func main() {
    var total = 0;
    for (var i = 0; i < 40; i = i + 1) {
        var v = scale(lookup(i));
        v = clamp(v, 0, 20);
        store_result(i, v);
        total = total + v;
    }
    return total + calls + writes;
}
""",
}


def pytest_addoption(parser):
    parser.addoption(
        "--hlo-checked", action="store_true",
        help="make HloOptions.checked default to True: every pipeline the "
             "suite runs verifies the IR and the derived data each pass "
             "kept, after each pass",
    )


def pytest_configure(config):
    if config.getoption("--hlo-checked"):
        original = HloOptions.__init__

        def init(self, *args, **kwargs):
            kwargs.setdefault("checked", True)
            original(self, *args, **kwargs)

        HloOptions.__init__ = init


@pytest.fixture(scope="session")
def calc_sources():
    return dict(CALC_SOURCES)


@pytest.fixture(scope="session")
def calc_reference(calc_sources):
    """Interpreter reference value for the calc program."""
    return run_program(compile_sources(calc_sources)).value


@pytest.fixture(scope="session")
def calc_profile(calc_sources):
    """A trained profile database for the calc program."""
    return train(calc_sources, [None])


def build_and_run(sources, options=None, profile_db=None, inputs=None):
    """Compile + execute; returns (BuildResult, MachineResult)."""
    compiler = Compiler(options or CompilerOptions())
    build = compiler.build(sources, profile_db=profile_db)
    return build, build.run(inputs=inputs)
