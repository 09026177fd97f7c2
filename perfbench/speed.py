"""Host-speed correction for wall times measured on a shared machine.

On a machine shared with other tenants the speed of a CPU changes by up
to about 2x for seconds at a time (other work on the same physical
core).  That swamps the changes the benchmark must detect: uncorrected
medians of the same work differ by 20% from one run to the next.

The worker process is pinned to one CPU, and a ``SpeedProbe`` thread in
it runs a fixed reference kernel every ``INTERVAL_S``.  Both threads
share that CPU, so each sample times the CPU the program is running on
at that moment.  The kernel runs twice per sample and only the second,
warm run is timed, so the sample does not depend on what the program
left in the caches.  A measured interval is corrected in two steps: the
time the probe held the CPU inside the interval is subtracted, and the
rest is multiplied by the mean speed around the interval, the mean of
``REFERENCE_S`` / sample duration.  (The mean of speeds, not of
durations: over an interval that spans a fast and a slow spell the work
done is the time integral of the speed.)  The result is the interval's
duration at the reference speed.  Raw wall times are kept in the run
record.
"""

from __future__ import annotations

import bisect
import itertools
import os
import threading
import time

#: Time between the starts of two samples.
INTERVAL_S = 0.025
#: Samples this far either side of an interval set its speed, so even a
#: millisecond call is scaled by a few dozen samples; the host's speed
#: changes over seconds.
WINDOW_S = 0.5
#: Duration of one warm reference kernel at the reference speed (about
#: its fastest duration on a shared 2-core x86-64 virtual machine).
REFERENCE_S = 1.3e-4


def pin_to_one_cpu() -> None:
    """Run this process, all its threads, on one CPU of those allowed."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _kernel(numpy) -> None:
    """Small-vector numpy and interpreter work, like the program's."""
    a = numpy.exp(1j * numpy.linspace(0.0, 1.0, 729))
    b = a.copy()
    perm = numpy.arange(729)[::-1].copy()
    acc = 0
    for i in range(40):
        b = a * b[perm]
        acc += i * i % 7
    float(numpy.vdot(b, b).real)


class SpeedProbe:
    """Samples the speed of the CPU this process runs on, while entered.

    The other methods may be called once the probe has been left.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []   # warm kernel
        self.busy: list[float] = []        # whole sample, both kernels
        self._speed_sums: list[float] = []
        self._busy_sums: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-probe",
                                        daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        import numpy

        while not self._stop.is_set():
            start = time.perf_counter()
            _kernel(numpy)
            warm = time.perf_counter()
            _kernel(numpy)
            end = time.perf_counter()
            self.starts.append(start)
            self.durations.append(end - warm)
            self.busy.append(end - start)
            self._stop.wait(max(0.0, INTERVAL_S - (end - start)))

    def correct(self, start: float, end: float) -> float:
        """Duration of [start, end] at the reference speed."""
        return (end - start - self.probe_time(start, end)) * self.speed(start, end)

    def probe_time(self, start: float, end: float) -> float:
        """Time the probe held the CPU inside [start, end]."""
        self._summarise()
        starts = self.starts
        first, last = bisect.bisect_left(starts, start), bisect.bisect_left(starts, end)
        busy = self._busy_sums[last] - self._busy_sums[first]
        if last > first:   # the last sample may run past the interval
            busy -= max(0.0, starts[last - 1] + self.busy[last - 1] - end)
        return busy

    def speed(self, start: float, end: float) -> float:
        """Mean speed, relative to the reference, around [start, end]."""
        self._summarise()
        low = bisect.bisect_left(self.starts, start - WINDOW_S)
        high = bisect.bisect_right(self.starts, end + WINDOW_S)
        if high == low:
            raise RuntimeError("no speed samples around a measured interval")
        return (self._speed_sums[high] - self._speed_sums[low]) / (high - low)

    def _summarise(self) -> None:
        if self._thread.is_alive():
            raise RuntimeError("SpeedProbe read while sampling")
        if len(self._speed_sums) != len(self.starts) + 1:
            self._speed_sums = list(itertools.accumulate(
                (REFERENCE_S / d for d in self.durations), initial=0.0))
            self._busy_sums = list(itertools.accumulate(self.busy, initial=0.0))
