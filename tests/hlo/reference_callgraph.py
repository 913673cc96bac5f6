"""The call-graph searches the WPA phase used to run, kept as the spec.

``src/repro`` answers recursion and transitive mod/ref from one linear
SCC pass (``ir/callgraph.py::strongly_connected_components``).  This
module is the code that replaced: one depth-first search per routine
asked about (here without the edge limit it used to give up at), and
the round-robin ``while changed`` sweep in dict order.
``test_callgraph_spec.py`` asserts the two agree; nothing under ``src/``
imports this.
"""

from typing import Dict, List, Sequence

from repro.hlo.analysis.modref import ModRefInfo


def reaches_itself(callees: Dict[str, Sequence[str]], name: str) -> bool:
    """Can ``name`` reach itself through ``{routine: callees}`` edges?"""
    stack = [name]
    seen = set()
    while stack:
        for callee in callees.get(stack.pop(), ()):
            if callee == name:
                return True
            if callee not in seen:
                seen.add(callee)
                stack.append(callee)
    return False


def round_robin_modref(
    direct: Dict[str, ModRefInfo], callees: Dict[str, List[str]]
) -> Dict[str, ModRefInfo]:
    """Transitive mod/ref by sweeping every routine until nothing moves.

    A routine that ends ``unknown`` keeps whatever it had merged before
    the sweep that found that out: only its flag means anything.
    """
    solved: Dict[str, ModRefInfo] = {}
    for name, info in direct.items():
        merged = ModRefInfo()
        merged.mod = set(info.mod)
        merged.ref = set(info.ref)
        merged.unknown = info.unknown
        solved[name] = merged

    changed = True
    while changed:
        changed = False
        for name, info in solved.items():
            if info.unknown:
                continue
            for callee in callees.get(name, []):
                callee_info = solved.get(callee)
                if callee_info is None or callee_info.unknown:
                    info.unknown = True
                    changed = True
                    break
                before = (len(info.mod), len(info.ref))
                info.mod |= callee_info.mod
                info.ref |= callee_info.ref
                if (len(info.mod), len(info.ref)) != before:
                    changed = True
    return solved
