"""How fast the host runs right now, measured by the benchmark's own work.

The host behind a small virtual machine changes speed by up to about 1.75x,
in phases from a tenth of a second to minutes, with the same instructions,
page faults and context switches: a request simply takes longer.  No
statistic over the requests of a run removes that, so the run measures the
speed itself.  It times a fixed piece of pure-Python graph work from
``workloads.py`` (a strong product, its graph6 string and a strong-generator
check): the same kind of work as the program's, written without it, so that a
change to the program cannot move it.

A ``Gauge`` takes these samples between requests and, from an interval timer,
every ``EVERY_S`` seconds while a request runs.  A request's time is its own
time, less the samples taken inside it, divided by the host's slowdown while
it ran: the harmonic mean of its samples and those just before and after it,
against ``NOMINAL_SAMPLE_S``.  The timer spreads the samples evenly over the
request, and the harmonic mean averages the host's speed, not its slowness,
over them, as the request's own progress does.  That is the time the request
would take at the nominal speed of the calibration machine.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import workloads as wl

# One sample at nominal speed: the median of 20 s of back-to-back samples on
# the calibration machine (2-vCPU Intel Xeon virtual machine, Python 3.11).
# It only sets the unit; a different value scales every time alike.
NOMINAL_SAMPLE_S = 0.00062
EVERY_S = 0.04  # timer period while a request runs
BETWEEN = 3  # samples between two requests

_ADJ = wl.strong_product(wl.cycle(5), wl.path(7))
_MEMBERS = range(0, len(_ADJ), 3)


def sample():
    """Seconds for one piece of reference work, with the collector paused so
    that it neither runs inside the sample nor is set off by it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        adj = wl.strong_product(wl.cycle(5), wl.path(7))
        wl.graph6(adj)
        # Every third vertex leaves some pair unresolved.
        wrong = wl.is_strong_generator(_ADJ, _MEMBERS)
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if wrong or adj != _ADJ:
        raise AssertionError("reference work gave a wrong answer")
    return elapsed


class Gauge:
    def __init__(self):
        self._between = [self._take_between()]  # before request 0, after each
        self._inside = []  # per request: samples taken while it ran
        self._current = None

    @staticmethod
    def _take_between():
        return [sample() for _ in range(BETWEEN)]

    def _tick(self, signum, frame):
        self._current.append(sample())

    def start(self):
        """Call right before a request: samples run inside it from now on."""
        self._current = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self):
        """Call right after the request; returns the seconds its samples took."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        inside, self._current = self._current, None
        self._inside.append(inside)
        self._between.append(self._take_between())
        return sum(inside)

    def slowdown(self, i):
        """Host slowdown while request i ran (1 = nominal speed)."""
        local = self._between[i] + self._inside[i] + self._between[i + 1]
        return statistics.harmonic_mean(local) / NOMINAL_SAMPLE_S

    def scale(self, times):
        """Times at nominal speed; times[i] excludes request i's samples."""
        return [t / self.slowdown(i) for i, t in enumerate(times)]

    def count(self):
        return sum(map(len, self._between)) + sum(map(len, self._inside))
