"""The machine's speed during a run, measured by a fixed probe.

On a shared machine the speed of the processor drifts by up to 2x over
tens of seconds as other tenants come and go, and the slow spells last
long enough to cover whole runs.  A ``Speedometer`` measures that drift
with a fixed pure-Python probe that shares no code with opint: table
lookups, small tuples and dictionaries, and frozen dataclasses built and
compared, the operations opint spends its time on.  While it runs, a
``SIGALRM`` handler times the probe every ``INTERVAL_S`` seconds, so the
samples interleave with the measured work; ``sample()`` takes a burst of
them directly around work too short for the timer.

``scale(start, end)`` turns a measured interval into the time it would
have taken had the probe run in ``NOMINAL_PROBE_S``::

    scaled = (end - start) * mean(NOMINAL_PROBE_S / probe time, over probes in it)

The probe does not call opint, so a change to opint moves scaled and
wall times alike; only the machine's drift is divided out.
``NOMINAL_PROBE_S`` is about the probe's time at the fastest speed seen
on a shared 2-core machine, so scaled times there read roughly as wall
times on an idle machine.
"""

from __future__ import annotations

import bisect
import math
import signal
import time
from dataclasses import dataclass

clock = time.perf_counter

INTERVAL_S = 0.025      # timer period; the probe costs about 4% of it
WINDOW_S = 0.2          # probes this close to a short interval judge its speed
MIN_PROBES = 6
NOMINAL_PROBE_S = 5e-4  # the probe's time with the machine at full speed
TABLE_SIZE = 4096       # entries in the probe's lookup table (about 0.5 MB)
LOOKUPS = 1000


@dataclass(frozen=True)
class _Cell:
    arity: int
    key: tuple


class Speedometer:
    def __init__(self):
        self._table = {(i, i * 7 % 1013): i for i in range(TABLE_SIZE)}
        step = 997      # a prime: consecutive lookups land far apart
        self._keys = [((i * step) % TABLE_SIZE, (i * step) % TABLE_SIZE * 7 % 1013)
                      for i in range(TABLE_SIZE)]
        self._next = 0
        self.samples = []    # (end time, duration) of each recorded probe, in order

    def _probe(self):
        """Run the probe once; returns its end time and duration."""
        t0 = clock()
        table, j = self._table, self._next
        total = sum(table[k] for k in self._keys[j:j + LOOKUPS])
        self._next = (j + LOOKUPS) % (TABLE_SIZE - LOOKUPS)
        counts = {}
        for i in range(LOOKUPS):
            key = (i % 97, i % 13)
            counts[key] = counts.get(key, 0) + 1
        cells = [_Cell(i % 5, (i, i % 3)) for i in range(250)]
        total += sum(a == b or hash(a) == hash(b) for a, b in zip(cells, cells[1:]))
        t1 = clock()
        return t1, t1 - t0

    def sample(self, n: int = 15):
        """A burst of ``n`` probes, for work too short for the timer.

        The timer's signal waits meanwhile, so that no probe times another.
        """
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self.samples.extend(self._probe() for _ in range(n))
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def _on_alarm(self, signum, frame):
        # The first run refills the caches the measured work evicted, so
        # that only the second, recorded one measures the machine's speed.
        self._probe()
        self.samples.append(self._probe())

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than nominal the machine ran over [start, end].

        The probes are spread evenly in wall time, so the interval's time at
        nominal speed is its length times the mean nominal-to-measured ratio
        of the probes in it.  An interval with fewer than ``MIN_PROBES``
        probes borrows those within ``WINDOW_S`` of it.
        """
        lo = bisect.bisect_left(self.samples, (start,))
        hi = bisect.bisect_right(self.samples, (end, math.inf))
        if hi - lo < MIN_PROBES:
            lo = bisect.bisect_left(self.samples, (start - WINDOW_S,))
            hi = bisect.bisect_right(self.samples, (end + WINDOW_S, math.inf))
        if lo == hi:
            raise RuntimeError("no speed probe near [%.3f, %.3f]" % (start, end))
        return (hi - lo) / sum(NOMINAL_PROBE_S / t for _, t in self.samples[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """The interval's length at nominal machine speed, in seconds."""
        return (end - start) / self.slowdown(start, end)
