"""Host speed: a fixed reference job, timed while the benchmark runs.

The benchmark runs on a shared VM whose speed drifts with its
neighbours' load: a fixed loop of interpreter and array work takes
±25% longer from one 20 ms window to the next and up to twice as long
over minutes, and process CPU time drifts with it (the vCPU runs slower
rather than being descheduled).  A run is a sample at one point of that
drift, so runs of the same code minutes apart disagree by more than any
bound a regression check could use.

So the benchmark also times a reference job — fixed interpreter and
array work of its own that never calls the program — around every
measured stretch (set-ups, open-loop windows, saturated runs,
recoveries) and in the idle waits of the open-loop windows.  Each
reported time is the wall time scaled by how fast the host ran the job
then::

    reported = wall * REFERENCE_S / median(job seconds around the stretch)

i.e. the time the stretch would have taken on a host that runs the job
in ``REFERENCE_S``.  "Around" is the stretch plus ``PAD_S`` either
side: the drift that splits runs apart is slow, while the few samples
a short stretch holds are not enough to time the host by.  A slower program still reads slower (the job does
not change with the program); a slower host does not.  The first
``WARMUP`` runs of the job after program work are not recorded: on the
reference host they ran up to 30% slower than the job does once warm,
so their times would follow what the program just did instead of the
host.  The raw wall figures stay in the run's report.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from statistics import median
from typing import List, Tuple

import numpy as np

#: About the median seconds of one :func:`job` on the reference host (a
#: shared 2-core x86-64 VM).  Every reported time is scaled to it.
REFERENCE_S = 0.0016

#: Samples taken before and after each bracketed stretch.
BRACKET = 5

#: Unrecorded runs of the job before it is timed.
WARMUP = 8

#: Seconds either side of a stretch whose samples time the host for it.
PAD_S = 2.0

_SIGNAL = np.sin(np.arange(1 << 15) * 0.013).reshape(-1, 512)
_WINDOW = np.hamming(512)
_FRAMES = np.empty_like(_SIGNAL)
_SPECTRUM = np.empty((_SIGNAL.shape[0], 257), dtype=complex)
_MAGNITUDE = np.empty(_SPECTRUM.shape)
_LARGE = np.sin(np.arange(1 << 20) * 0.001)
_SCRATCH = np.empty_like(_LARGE)


def job() -> float:
    """The reference job, in two halves of about equal time: dictionary
    churn in the interpreter plus a windowed FFT over a 256 KB signal,
    which stay in the core's caches, then one pass over 8 MB arrays,
    which streams through the shared cache.  The program slows with
    both its neighbours' core load and their memory traffic; on the
    reference host the two halves together tracked its speed over
    one-second stretches better than either alone (correlation 0.9,
    quartile spread of program time 0.12-0.15 raw, 0.04-0.06 scaled)."""
    table = {}
    for i in range(4000):
        key = i % 97
        table[key] = table.get(key, 0) + i
    # Into preallocated arrays, so the job's time does not depend on
    # the state the program left the allocator in.
    np.multiply(_SIGNAL, _WINDOW, out=_FRAMES)
    np.fft.rfft(_FRAMES, axis=1, out=_SPECTRUM)
    np.abs(_SPECTRUM, out=_MAGNITUDE)
    np.multiply(_LARGE, 1.0001, out=_SCRATCH)
    return float(_MAGNITUDE.sum() + _SCRATCH[::4096].sum()) + len(table)


class HostSpeed:
    """Job timings over a run, and the host factor of any stretch."""

    def __init__(self) -> None:
        #: ``perf_counter`` time each sample ended, and its seconds.
        self.at: List[float] = []
        self.seconds: List[float] = []

    def sample(self, count: int) -> None:
        """Warm the job up, then time ``count`` runs of it."""
        for _ in range(WARMUP):
            job()
        for _ in range(count):
            self._timed()

    def _timed(self) -> float:
        start = time.perf_counter()
        job()
        end = time.perf_counter()
        self.at.append(end)
        self.seconds.append(end - start)
        return end - start

    def idle_until(self, due: float) -> None:
        """Wait for ``due`` (a ``perf_counter`` time).  A wait long
        enough to time the job at least once after its warm-up runs it,
        timing the runs after the first ``WARMUP``, until two runs' time
        before ``due``; the rest of the wait, and a shorter one, spins
        (sleeping would let the VM park the vCPU, and waking it makes
        the generator late by up to milliseconds)."""
        start = time.perf_counter()
        if start + (WARMUP + 3) * REFERENCE_S < due:
            runs = 0
            run_s = REFERENCE_S
            while start + 2 * run_s < due:
                if runs < WARMUP:
                    job()
                    end = time.perf_counter()
                    run_s = end - start
                    start = end
                else:
                    run_s = self._timed()
                    start = self.at[-1]
                runs += 1
        while time.perf_counter() < due:
            pass

    def bracketed(self, step) -> Tuple[object, float, Tuple[float, float]]:
        """Run ``step()`` between ``BRACKET`` samples each side; its
        result, wall seconds and ``(start, end)``.  Scale the seconds
        once the samples after the stretch are in (:meth:`factor`)."""
        self.sample(BRACKET)
        start = time.perf_counter()
        result = step()
        end = time.perf_counter()
        self.sample(BRACKET)
        return result, end - start, (start, end)

    def factor(self, start: float, end: float) -> float:
        """How much slower than the reference host the job ran around
        ``[start, end]``: the median of the samples taken from
        ``PAD_S`` before it to ``PAD_S`` after it, over ``REFERENCE_S``."""
        lo = bisect_left(self.at, start - PAD_S)
        hi = bisect_right(self.at, end + PAD_S)
        if lo >= hi:
            raise ValueError("no host-speed sample near the stretch")
        return median(self.seconds[lo:hi]) / REFERENCE_S
