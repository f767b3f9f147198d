"""A clock that counts seconds at a fixed host speed.

On the shared virtual machine the benchmark was tuned on, each vCPU shares a
physical core with another tenant.  While the neighbour is busy the same
code runs up to ~2x slower on that CPU, and that state flips every second or
so and drifts over minutes (README, "Host clock"), so raw wall times of one
program differ by more than any useful regression bound.

``HostClock`` samples the speed of the CPU the program runs on: it pins the
process to one CPU, and a sampler thread times ``probe()``, a fixed mix of
interpreter work and small-array numpy calls like the planner's, every
``PERIOD_S``.  The thread also samples while the main thread is inside
scipy's LU factorizations, which release the GIL.  Each wall interval
between two probes is weighted by ``REFERENCE_S / duration`` of the probe
that opened it, so ``now()`` advances at wall speed while the CPU runs the
probe in ``REFERENCE_S`` and proportionally slower while it runs slower.  The
probes' own time is left out, and ``now()`` never goes back.  ``wall()``
gives the raw wall time, also without the probes, so both readings can be
recorded.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from array import array

import numpy as np

PERIOD_S = 0.01
# Sets the unit only: about the probe's fastest duration seen on the 2-vCPU
# host the benchmark was tuned on.  Changing it rescales every reading.
REFERENCE_S = 9.0e-5

_SMALL = np.linspace(0.0, 1.0, 64)


def probe() -> None:
    """Fixed work: a dict-updating Python loop and 25 small-array numpy steps."""
    counts: dict[int, int] = {}
    for i in range(400):
        key = i & 63
        counts[key] = counts.get(key, 0) + 1
    y = _SMALL
    for _ in range(25):
        y = np.sqrt(y * y + 1.0) * 0.5


class HostClock:
    """Context manager; ``now()`` reads host-speed-weighted seconds since entry."""

    def __init__(self):
        self.probe_s = 0.0
        self.durations = array("d")
        self._seconds = 0.0
        self._floor = 0.0
        self._speed = 1.0
        self._start = self._last = 0.0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._affinity: set[int] | None = None

    @property
    def probes(self) -> int:
        return len(self.durations)

    def _probe(self) -> None:
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        with self._lock:
            if self.durations:
                self._seconds += (t0 - self._last) * self._speed
            self._speed = REFERENCE_S / (t1 - t0)
            self._last = t1
            self.probe_s += t1 - t0
            self.durations.append(t1 - t0)

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._probe()

    def now(self) -> float:
        with self._lock:
            # A reading taken while the sampler thread was preempted mid-probe
            # ran ahead by at most one probe; hold the clock there.
            self._floor = max(self._floor, self._seconds + (time.perf_counter() - self._last) * self._speed)
            return self._floor

    def wall(self) -> float:
        """Wall seconds since entry, without the probes."""
        with self._lock:
            return time.perf_counter() - self._start - self.probe_s

    def median_probe_s(self) -> float:
        return statistics.median(self.durations)

    def __enter__(self) -> HostClock:
        # Threads inherit the main thread's affinity, so the sampler probes
        # the CPU the program runs on.
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._affinity)})
        self._start = self._last = time.perf_counter()
        self._probe()  # first speed reading before any interval is counted
        self._thread = threading.Thread(target=self._sample, name="hostclock", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._affinity)
