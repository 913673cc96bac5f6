"""Build-report assembly and rendering.

The CLI prints the same thing for the same build whether it ran in
process or on a coordinator (``python -m repro.driver build --farm
HOST:PORT``).  Both paths therefore reduce a finished build to one
JSON-safe *summary* dict -- locally from the
:class:`~repro.driver.compiler.BuildResult`, remotely assembled by the
coordinator and shipped over the wire -- and render it through
:func:`render_build_summary`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..naim.memory import fmt_bytes
from .compiler import BuildResult
from .options import CompilerOptions


#: ``hlo_phase_seconds`` keys of the ``wpa:`` line, in pipeline order.
_WPA_LINE = ("wpa.scan", "wpa.callgraph", "wpa.ipcp", "wpa.clone",
             "wpa.inline", "wpa.summarize", "scalar.replay")


def build_summary(
    options: CompilerOptions,
    n_modules: int,
    build: BuildResult,
    report=None,
    incremental: bool = False,
) -> Dict[str, object]:
    """Reduce one finished build to a JSON-safe summary dict."""
    summary: Dict[str, object] = {
        "describe": options.describe(),
        "n_modules": n_modules,
        "source_lines": build.source_lines,
        "code_size": build.executable.code_size() if build.executable else 0,
        "total_seconds": build.timings.total(),
        "incremental": incremental,
        "hlo_jobs": options.hlo_jobs,
        "use_partitioned_hlo": options.use_partitioned_hlo,
        "interface_problems": list(build.interface_problems),
    }
    if build.ltrans_stats is not None:
        summary["hlo_backend"] = build.ltrans_stats.get("backend")
        summary["hlo_effective_jobs"] = build.ltrans_stats.get(
            "effective_jobs"
        )
        summary["hlo_partitions"] = build.ltrans_stats.get("partitions")
    if report is not None:
        summary["recompiled"] = len(report.recompiled)
        summary["reused"] = len(report.reused)
    if build.incr_report is not None:
        summary["cmo_reused"] = len(build.incr_report.reused)
        summary["cmo_reoptimized"] = len(build.incr_report.reoptimized)
        summary["cmo_compiled_routines"] = len(
            build.incr_report.compiled_routines
        )
        summary["cmo_changed"] = list(build.incr_report.changed_modules)
        summary["cmo_wpa"] = build.incr_report.describe_wpa()
    if build.plan is not None and options.selectivity_percent is not None:
        summary["plan"] = str(build.plan)
    if build.hlo_result is not None:
        summary["hlo_inline_stats"] = str(build.hlo_result.inline_stats)
        summary["hlo_peak_bytes"] = build.hlo_result.peak_bytes
        summary["wpa_peak_bytes"] = build.hlo_result.wpa_peak_bytes
        summary["hlo_phase_seconds"] = dict(build.hlo_result.phase_seconds)
        pass_stats = build.hlo_result.ctx.stats
        summary["scalar_runs"] = sum(pass_stats.runs.values())
        summary["scalar_skips"] = sum(pass_stats.skips.values())
        summary["naim_loader"] = build.hlo_result.loader.stats.as_dict()
    return summary


def render_build_summary(
    summary: Dict[str, object]
) -> Tuple[List[str], List[str]]:
    """Summary dict -> (stdout lines, stderr lines).

    The exact line shapes the CLI has always printed; a ``--farm``
    build renders the identical text from the shipped dict.
    """
    out: List[str] = []
    err: List[str] = []
    out.append(
        "build %s: %d modules, %d lines -> %d machine instrs (%.2fs)"
        % (summary["describe"], summary["n_modules"],
           summary["source_lines"], summary["code_size"],
           summary["total_seconds"])
    )
    if summary.get("incremental"):
        out.append("incremental: %d objects recompiled, %d reused"
                   % (summary.get("recompiled", 0),
                      summary.get("reused", 0)))
        if "cmo_reused" in summary:
            line = (
                "incremental cmo: %d modules reused, %d reoptimized "
                "(changed: %s)"
                % (summary["cmo_reused"], summary["cmo_reoptimized"],
                   ", ".join(summary.get("cmo_changed", [])) or "-")
            )
            if "cmo_compiled_routines" in summary:
                line += ", %d routines compiled" % (
                    summary["cmo_compiled_routines"]
                )
            if "cmo_wpa" in summary:
                line += "; wpa %s" % summary["cmo_wpa"]
            out.append(line)
    if summary.get("use_partitioned_hlo"):
        # The workers that ran, and the request when the clamp to
        # partitions and CPUs cut it.
        requested = summary["hlo_jobs"]
        effective = summary.get("hlo_effective_jobs", requested)
        line = "hlo-jobs: %d workers" % effective
        if effective != requested:
            line += " of %d requested" % requested
        line += ", %d partitions" % summary.get("hlo_partitions", 0)
        if summary.get("hlo_backend"):
            line += " (%s backend)" % summary["hlo_backend"]
        out.append(line)
    for problem in summary.get("interface_problems", []):
        err.append("warning: interface mismatch: %s" % problem)
    if "plan" in summary:
        out.append("selectivity: %s" % summary["plan"])
    if "hlo_inline_stats" in summary:
        out.append("hlo: %s, peak memory %s"
                   % (summary["hlo_inline_stats"],
                      fmt_bytes(summary["hlo_peak_bytes"])))
    phase_seconds = summary.get("hlo_phase_seconds", {})
    # The serial slice in pipeline order; phases that did not run
    # (summarize without an incremental session, replay when LTRANS
    # workers do it) are left out.
    serial = [
        (phase.split(".", 1)[1], phase_seconds[phase])
        for phase in _WPA_LINE if phase in phase_seconds
    ]
    if serial:
        out.append("wpa: " + ", ".join("%s %.3fs" % item for item in serial))
    passes = [
        (phase[len("scalar."):], seconds)
        for phase, seconds in phase_seconds.items()
        if phase.startswith("scalar.") and phase != "scalar.replay"
    ]
    if passes:
        # Costliest first, then how many pass executions that was and
        # how many more the pipeline proved unnecessary; all summed
        # over workers when LTRANS is partitioned.
        passes.sort(key=lambda item: (-item[1], item[0]))
        out.append(
            "scalar: " + ", ".join("%s %.2fs" % item for item in passes)
            + "; %d runs, %d skipped"
            % (summary.get("scalar_runs", 0), summary.get("scalar_skips", 0))
        )
    loader = summary.get("naim_loader")
    if loader is not None:
        # What the codec and the repository were paid for (summed over
        # workers when LTRANS is partitioned); all zeros but the last
        # two on a build small enough that NAIM never engaged.
        out.append(
            "naim: %d encodes, %d clean evictions, %d decodes, %d fetches, "
            "%d spent bodies released, cache hit ratio %.3f"
            % (loader["compactions"], loader["clean_evictions"],
               loader["uncompactions"], loader["repository_fetches"],
               loader["released_spent"],
               loader["cache_hits"] / max(loader["touches"], 1))
        )
    return out, err
