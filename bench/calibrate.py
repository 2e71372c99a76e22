"""Speed probe: a fixed pure-Python unit timed every few milliseconds.

The benchmark runs on shared machines whose speed drifts by tens of per
cent over seconds to minutes, with other tenants' load.  ``SpeedProbe``
samples that speed *during* a timed pass: an interval timer (SIGALRM)
interrupts the pass every ``PERIOD`` seconds, and the handler times one
``probe_unit``: fixed loops of integer arithmetic and of dict updates
keyed by tuples, which use none of the program's code.  The mean unit
time over a pass says how fast the machine ran while the pass ran.

``normalised`` turns a pass's wall time into seconds at reference speed:
the probe's own time is taken out, and the rest is scaled by
``REF_UNIT_S / mean unit time``.  A change to the program moves the
pass time but not the probe, so it shows in full; a slower machine
moves both, and the ratio cancels most of it.
"""

from __future__ import annotations

import signal
import time

PERIOD = 0.025
# Typical unit time on a 2.0 GHz Intel Xeon VM with CPython 3.11; it
# only sets the scale of normalised times, never their ratios.
REF_UNIT_S = 3.3e-4


def probe_unit() -> int:
    """Integer arithmetic, then dict updates keyed by tuples."""
    acc = 0
    for i in range(1500):
        acc += i * i
    table = {}
    for i in range(300):
        key = (i & 31, (i >> 5) & 3)
        table[key] = table.get(key, 0j) + complex(i, 1.0) * 0.5
    return acc + len(table)


class SpeedProbe:
    """Context manager: samples ``probe_unit`` every PERIOD seconds."""

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.sampled = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        # The first unit refills caches the pass has evicted; the second,
        # warm one is the sample.
        t0 = time.perf_counter()
        probe_unit()
        t1 = time.perf_counter()
        probe_unit()
        t2 = time.perf_counter()
        self.total += t2 - t0
        self.sampled += t2 - t1
        self.count += 1

    def __enter__(self):
        self.count, self.total, self.sampled = 0, 0.0, 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def unit_seconds(self) -> float | None:
        return self.sampled / self.count if self.count else None

    def normalised(self, wall: float) -> float:
        """``wall`` (which contains the probes) in seconds at reference speed."""
        unit = self.unit_seconds()
        if unit is None:
            return wall
        return (wall - self.total) * REF_UNIT_S / unit
