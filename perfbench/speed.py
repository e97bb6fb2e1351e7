"""Rescaling measured times to a reference machine speed.

The CPUs this benchmark was written on drift in speed by up to a factor
of two over seconds to tens of seconds when other tenants load the host,
and the two CPUs drift independently.  A fixed pure-Python loop run on
the same CPU follows that drift.  Interleaved with engine calls of about
90 ms for 80 s, it cut the spread (interquartile range over median) of
40-call totals from 0.25 raw to 0.05 after rescaling.

``SpeedProbe`` samples the loop right before and right after each timed
call, and every 50 ms from a daemon thread, so that a call of seconds is
sampled throughout.  The daemon thread visits in turn each CPU the main
thread may run on: the one CPU of a pinned run, or every CPU of a run
whose pool workers share them.  A sample counts the loop's own CPU
time, so time the loop spends waiting for the work does not count; a
slower CPU does.
``Stopwatch`` rescales the duration of each call by the mean of
REFERENCE_LOOP_S / loop over the samples from just before it to just
after it.

The host also takes the CPUs away now and then: the guest kernel counts
that as steal time, and it was up to 12% of a round's wall time.
``Stopwatch`` subtracts the steal time of the CPUs the work runs on from
the wall time before rescaling it.  The raw times go to the result file
beside the rescaled ones.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from array import array

# Loop time at the reference speed: about the fastest this loop runs on
# the 2-CPU machine the reference figures in README.md come from.
REFERENCE_LOOP_S = 0.0011
PERIOD_S = 0.05


def loop_s() -> float:
    """CPU time of one fixed pure-Python loop of about a millisecond."""
    start = time.thread_time()
    acc, table = 0, {}
    for i in range(10_000):
        acc += (i * i) % 7
        table[i & 255] = acc
    return time.thread_time() - start


class SpeedProbe:
    """Loop samples (end time, REFERENCE_LOOP_S / loop time), in time order."""

    def __init__(self):
        self._at = array("d")
        self._ratio = array("d")
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)
        self._thread.start()

    def _run(self):
        main = threading.main_thread().native_id
        turn = 0
        while not self._stop.wait(PERIOD_S):
            # Visit in turn each CPU the main thread may run on, which are
            # also the CPUs its pool workers inherit.
            cpus = sorted(os.sched_getaffinity(main))
            os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
            turn += 1
            self.sample()

    def sample(self) -> float:
        """Time the loop now, on the calling thread; returns the sample's time."""
        ratio = REFERENCE_LOOP_S / loop_s()
        with self._lock:
            at = time.perf_counter()
            self._at.append(at)
            self._ratio.append(ratio)
        return at

    def stop(self):
        self._stop.set()
        self._thread.join()

    def factor(self, t0: float, t1: float) -> float:
        """Mean ratio over the samples taken in [t0, t1]."""
        with self._lock:
            lo = bisect.bisect_left(self._at, t0)
            hi = bisect.bisect_right(self._at, t1)
            window = self._ratio[lo:hi]
        return sum(window) / len(window)


def steal_s() -> float:
    """Steal time so far, in seconds, averaged over the CPUs this process may run on."""
    cpus = {f"cpu{c}" for c in os.sched_getaffinity(0)}
    ticks = []
    with open("/proc/stat", encoding="ascii") as fh:
        for line in fh:
            fields = line.split()
            if fields[0] in cpus:
                ticks.append(int(fields[8]))
    return sum(ticks) / len(ticks) / os.sysconf("SC_CLK_TCK")


class Stopwatch:
    """Raw and rescaled wall and CPU time of the calls made through ``time``.

    ``cpu_seconds`` returns the CPU time used so far by the process and
    the children it has reaped.
    """

    def __init__(self, probe: SpeedProbe, cpu_seconds):
        self.wall = self.wall_scaled = self.cpu = self.cpu_scaled = 0.0
        self._probe = probe
        self._cpu_seconds = cpu_seconds

    def time(self, fn):
        """Call fn(), add its duration, and return its result."""
        before = self._probe.sample()
        steal0, cpu0, start = steal_s(), self._cpu_seconds(), time.perf_counter()
        result = fn()
        wall, cpu = time.perf_counter() - start, self._cpu_seconds() - cpu0
        stolen = steal_s() - steal0
        factor = self._probe.factor(before, self._probe.sample())
        self.wall += wall
        self.cpu += cpu
        self.wall_scaled += max(wall - stolen, 0.0) * factor
        self.cpu_scaled += cpu * factor
        return result
