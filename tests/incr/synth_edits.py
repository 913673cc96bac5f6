"""Source edits for ``repro.synth`` programs, shared by the incremental
tests: every generated routine starts ``acc = p0 * K + p1``."""

import re

_CONSTANT = re.compile(r"\* (\d+) \+")


def bump(source, nth=0):
    """Bump the ``nth`` multiplier constant (modulo the site count)."""
    sites = list(_CONSTANT.finditer(source))
    site = sites[nth % len(sites)]
    return "%s%d%s" % (source[:site.start(1)], int(site.group(1)) + 1,
                       source[site.end(1):])


# Edits that change what the whole-program analysis reads (the
# routines' facts or the globals); ``bump`` above changes neither.

_CALL_ARGUMENT = re.compile(r"\b(m\d+_r\d+)\((\d+)")
_ACC_INIT = re.compile(r"(    var acc = [^;]*;\n)")
_GLOBAL_INIT = re.compile(r"^(global \w+ = )(\d+);", re.MULTILINE)
_ROUTINE = re.compile(r"^func (\w+)\(.*?^}\n", re.MULTILINE | re.DOTALL)


def bump_call_argument(source, nth=0):
    """Pass a new constant first argument at the ``nth`` call site that
    has one (the source unchanged when none does)."""
    sites = list(_CALL_ARGUMENT.finditer(source))
    if not sites:
        return source
    site = sites[nth % len(sites)]
    return "%s%d%s" % (source[:site.start(2)], int(site.group(2)) + 1,
                       source[site.end(2):])


def add_statement(source, nth=0):
    """Add ``acc = acc + 1;`` after the ``nth`` routine's first line."""
    sites = list(_ACC_INIT.finditer(source))
    site = sites[nth % len(sites)]
    return "%s    acc = acc + 1;\n%s" % (source[:site.end(1)],
                                         source[site.end(1):])


def bump_global_initializer(source, nth=0):
    """Bump the ``nth`` scalar global's initializer (the source unchanged
    when the module has none)."""
    sites = list(_GLOBAL_INIT.finditer(source))
    if not sites:
        return source
    site = sites[nth % len(sites)]
    return "%s%d;%s" % (source[:site.end(1)], int(site.group(2)) + 1,
                        source[site.end():])


def delete_uncalled_routine(sources, module, nth=0):
    """Delete the ``nth`` routine of ``module`` that no source calls (the
    source unchanged when every one is called)."""
    text = sources[module]
    candidates = [
        match for match in _ROUTINE.finditer(text)
        if match.group(1) != "main" and not any(
            re.search(r"\b%s\(" % match.group(1), other.replace(
                "func %s(" % match.group(1), ""))
            for other in sources.values()
        )
    ]
    if not candidates:
        return text
    match = candidates[nth % len(candidates)]
    return text[:match.start()] + text[match.end():]
