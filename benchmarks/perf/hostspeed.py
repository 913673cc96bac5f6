"""Times normalised to a reference host, so that runs can be compared.

The hosts this benchmark runs on are shared.  On the reference host a
pure-Python loop alternates, every minute or so, between taking 0.11 s
and 0.18 s, and a cold build between 1.3 s and 1.9 s: medians of raw
build times over 10 s windows spread 23-33 % (distance between quartiles
over median) on one commit.  A raw wall time says more about the
neighbours than about the compiler.

So every time the benchmark reports is measured next to a *probe* -- a
fixed piece of pure-Python work that imports nothing from the compiler --
and scaled to a host on which the probe takes :data:`REF_NOMINAL_S`:

    reported = wall seconds * REF_NOMINAL_S / mean(probe before, probe after)

The probe is an arithmetic loop plus an allocate-hash-chase loop, because
neighbours slow the two differently (x1.6 and x1.4) and a build sits in
between (x1.45); with both, the same windows spread 5-7 %.  Probes run at
most once a second; operations shorter than that share them.

The raw probe time is printed in the run header (``ref_loop_s``) and each
result carries its ``host_scale``, so reported seconds convert back to
this host's wall seconds, and rows from different hosts compare.
"""

from __future__ import annotations

import time
from typing import List

#: Probe seconds of the nominal host all times are scaled to.
REF_NOMINAL_S = 0.2
#: Least seconds between two probes of :meth:`HostSpeed.probe_if_due`.
PROBE_EVERY_S = 1.0

clock = time.perf_counter


class _Node:
    __slots__ = ("number", "text", "link")

    def __init__(self, number: int, text: str) -> None:
        self.number = number
        self.text = text
        self.link = None


def ref_loop_s() -> float:
    """Wall seconds of the fixed probe, now, on this host."""
    start = clock()
    # Interpreter-bound: no memory to speak of.
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    # Memory-bound: allocate, hash and chase pointers.  Small passes, so
    # that the probe does not raise the peak RSS it is measured beside.
    size = 30_000
    for _ in range(4):
        nodes = [_Node(i, str(i)) for i in range(size)]
        table = {node.text: node for node in nodes}
        for i in range(0, size, 3):
            node = table[str(i)]
            node.link = nodes[(i * 7) % size]
            total += node.link.number
        del nodes, table
    return clock() - start


class HostSpeed:
    """The probes of one process."""

    def __init__(self) -> None:
        #: Seconds of the latest probe.
        self.last = 0.0
        #: Seconds spent probing so far (never the compiler's time).
        self.spent = 0.0
        #: Probes since :meth:`start_phase`.
        self.phase: List[float] = []
        self._probed_at = 0.0
        self.probe()

    def probe(self) -> None:
        self.last = ref_loop_s()
        self.spent += self.last
        self.phase.append(self.last)
        self._probed_at = clock()

    def probe_if_due(self) -> None:
        if clock() - self._probed_at >= PROBE_EVERY_S:
            self.probe()

    def scale_since(self, before: float) -> float:
        """Factor for a measurement that began when the probe took
        ``before`` seconds and ended ahead of the latest probe."""
        return REF_NOMINAL_S / ((before + self.last) / 2)

    def start_phase(self) -> None:
        """Begin a longer stretch (a set-up) that spans several probes."""
        self.probe_if_due()
        self.phase = [self.last]

    def phase_scale(self) -> float:
        return REF_NOMINAL_S / (sum(self.phase) / len(self.phase))
