"""The program-walking interface check, kept as the spec.

``src/repro/linker/link.py::check_interfaces`` reads each IL object's
call sites and arities, computed once per object
(``ObjectFile.interface``).  This module is the code that replaced: a
walk over every call of every routine of a whole :class:`Program`,
resolving each callee through the program symbol table, which is the
plainest statement of what the check reports and in which order.
``test_interfaces.py`` asserts both give the same problem list, text
and order; nothing under ``src/`` imports this.
"""

from typing import List

from repro.ir.program import Program


def check_interfaces(program: Program) -> List[str]:
    """Every IL call site's argument count against the callee's
    declared parameter count; callees the program does not define are
    skipped (unresolved symbols are reported elsewhere)."""
    problems: List[str] = []
    table = program.symtab
    for module in program.module_list():
        for routine in module.routine_list():
            for block in routine.blocks:
                for _, instr in block.calls():
                    callee_name = instr.sym
                    if not table.has_routine(callee_name):
                        continue
                    callee = program.routine(callee_name)
                    if len(instr.args) != callee.n_params:
                        problems.append(
                            "%s calls %s with %d args (expects %d)"
                            % (
                                routine.name,
                                callee_name,
                                len(instr.args),
                                callee.n_params,
                            )
                        )
    return problems
