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
