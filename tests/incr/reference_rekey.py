"""The rule a reusing link used to find the routines whose reuse keys it
must derive again, kept as the reference for the reverse-closure walk
that replaced it (``IncrLinkSession.rekeyed_routines``).

It evaluates the plan's forward import closure for every routine of the
unit: a routine is re-keyed when its body changed, when its replay reads
a changed body (a spliced callee or a clone origin, transitively), or
when the last link committed no key for it.
"""


def rekeyed_routines(session, unit, plan):
    if session.wpa != "reused":
        return None
    previous = session.state.summaries
    edited = set()
    for module_name in session.changed_modules:
        before = previous.get(module_name, {}).get("body_hashes", {})
        for name, value in session.summaries[module_name].body_hashes.items():
            if before.get(name) != value:
                edited.add(name)
    committed = session.state.routine_keys
    need = plan.import_closure()
    return {
        name for name, module_name in unit.routine_module.items()
        if name not in committed.get(module_name, {}) or name in edited
        or not edited.isdisjoint(need(name))
    }
