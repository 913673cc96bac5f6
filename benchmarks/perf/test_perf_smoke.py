"""Smoke test of the link-pipeline benchmark (``pytest benchmarks/perf``).

Not part of the tier-1 ``testpaths``: it starts ten child interpreters.
It runs the suite once in ``--quick`` mode (tiny program, a fixed handful
of operations), untraced and traced, and checks the shape of what comes
out -- never the numbers, which ``--quick`` makes meaningless.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CATALOGUE = json.load(_handle)
WORKLOADS = [w["name"] for w in CATALOGUE["workloads"]]

#: Span -> the workloads it must fire on; it must stay idle on the rest.
#: This is the README's interaction table in executable form: a layer
#: that is idle on a workload cannot move that workload's numbers.
ALL = frozenset(WORKLOADS)
FIRES_ON = {
    "frontend.compile_source": ALL,
    "driver.compile_object": ALL,
    "driver.link_into": ALL,
    "hlo.optimize": ALL,
    # parallel_ltrans runs the scalar phase and codegen inside its workers,
    # where no span is recorded.
    "hlo.run_scalar_phase": ALL - {"parallel_ltrans"},
    "llo.compile_routine": ALL - {"parallel_ltrans"},
    # The codec packs what leaves the process or the expanded heap: pools
    # offloaded by NAIM, partitions shipped to workers, incremental
    # summaries.  A plain cold build encodes and decodes nothing.
    "naim.compact_routine": {"cold_naim_offload", "parallel_ltrans",
                             "edit_loop"},
    "naim.compact_symtab": {"cold_naim_offload"},
    "naim.uncompact_routine": {"cold_naim_offload"},
    "naim.uncompact_symtab": {"cold_naim_offload"},
    "naim.repo_store": {"cold_naim_offload", "edit_loop"},
    "naim.repo_fetch": {"cold_naim_offload", "edit_loop"},
    "naim.repo_fetch_many": {"cold_naim_offload"},
    "naim.loader_touch": ALL,
    "part.run": {"parallel_ltrans"},
    "sched.run_batch": {"parallel_ltrans"},
    "incr.begin_link": {"edit_loop"},
    "incr.commit": {"edit_loop"},
    "linker.cluster_routines": {"selective_pbo"},
    "linker.build_image": ALL,
    "vm.run_image": ALL,
}


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "report.json"
    done = subprocess.run(
        [sys.executable, RUN, "--quick", "--trace", "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    assert done.returncode == 0, done.stdout
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def test_header_normalises_the_machine(report):
    header = report["header"]
    for key in ("nproc", "python", "platform", "git_commit", "ref_loop_s"):
        assert header[key], key
    assert header["ref_loop_s"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_with_its_unit(report, workload):
    entry = report["workloads"][workload]
    for kind in ("end_to_end", "per_layer"):
        for metric in CATALOGUE[kind]:
            got = entry["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"], metric["name"]
            assert isinstance(got["value"], (int, float)), metric["name"]
    for metric in CATALOGUE["end_to_end"]:
        assert entry["metrics"][metric["name"]]["value"] > 0, metric["name"]
    assert entry["trace_overhead_ratio"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_check_failed(report, workload):
    entry = report["workloads"][workload]
    assert entry["correct"] is True
    assert entry["failed"] == 0
    assert entry["attempted"] >= 4
    for run in entry["runs"]:
        assert run["problems"] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrappers_fire_where_the_interaction_table_says(report, workload):
    traced = [run for run in report["workloads"][workload]["runs"]
              if run["trace"]][0]
    calls = traced["wrapper_calls"]
    for span, where in FIRES_ON.items():
        if workload in where:
            assert calls.get(span, 0) > 0, "%s idle on %s" % (span, workload)
        else:
            assert calls.get(span, 0) == 0, "%s fired on %s" % (span, workload)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_add_up_to_the_build(report, workload):
    traced = [run for run in report["workloads"][workload]["runs"]
              if run["trace"]][0]
    assert abs(traced["self_time_coverage"] - 1.0) < 0.05
    assert set(traced["self_s"]) >= {"driver", "frontend", "hlo", "llo",
                                     "linker", "naim"}


def test_parallel_image_is_the_serial_image(report):
    images = {
        name: report["workloads"][name]["runs"][0]["reference_image_sha"]
        for name in ("cold_full_cmo", "parallel_ltrans")
    }
    assert images["cold_full_cmo"] == images["parallel_ltrans"]


def test_one_workload_prints_the_contract_line():
    done = subprocess.run(
        [sys.executable, RUN, "--quick", "--workload", "cold_full_cmo",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    assert done.returncode == 0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert sorted(line["metrics"]) == sorted(
        m["name"] for m in CATALOGUE["end_to_end"])


def test_refuses_to_run_without_the_compiler(tmp_path):
    """In a directory holding only the benchmark, it must fail, not print."""
    target = tmp_path / "benchmarks" / "perf"
    shutil.copytree(HERE, target, ignore=shutil.ignore_patterns(
        ".work", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, str(target / "run.py"), "--workload",
         "cold_full_cmo", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
