"""Times scaled to a reference speed of the box.

On a shared 2-vCPU host the speed of interpreter-bound code swings by 1.5x
to 2x, over seconds and over hours, while the process stays on its vCPU
(its CPU time equals its wall time).  Raw wall times of the same round then
spread by more than any useful bound.  So the benchmark measures the speed
of the box while it times the program, and scales each time to one fixed
speed:

- A fixed probe, PROBE_MULS products of 2x2 tuple matrices mod 49 in plain
  Python (the shape of the program's `Mat.mul`, but the benchmark's own
  code, so no change to the program changes it), is timed from a SIGALRM
  handler every PERIOD seconds of wall time.  It runs in the measured
  process, so on the same vCPU and in the same moments as the program.
- A span's reference seconds are its wall seconds, less the probes that ran
  inside it, times the mean of PROBE_REF_S / probe seconds over the probes
  inside it and the nearest one on each side.  That mean is the box's speed
  during the span relative to the reference, and its product with the
  wall time is the time the span would take at the reference speed.

PROBE_REF_S is a fixed constant (about the probe's time on the box the
benchmark was sized on), so reference seconds compare across runs and
commits like seconds.  A change to the program moves them exactly as it
moves wall time at a fixed speed of the box.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

from corpus import mat_mul

PERIOD = 0.1          # seconds of wall time between probes
PROBE_MULS = 300
PROBE_REF_S = 0.002   # the probe's seconds at the reference speed

_A = ((3, 7), (11, 5))
_I = ((1, 0), (0, 1))


class SpeedProbe:
    """Samples the box's speed while it is entered.

    with SpeedProbe() as speed:
        t0 = time.perf_counter(); work(); t1 = time.perf_counter()
    seconds = speed.reference_seconds(t0, t1)

    Spans may be scaled only after the block has exited, which takes a last
    probe, so the last span has a probe after it.
    """

    def __init__(self):
        self.starts = []      # perf_counter at the start of each probe
        self.seconds = []     # each probe's duration
        self._old = None
        self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    def _sample(self, *_):
        if self._busy:        # a probe delayed past PERIOD; keep one
            return
        self._busy = True
        # no collection of the program's heap inside the probe, so its
        # time does not depend on how many objects the program holds
        collecting = gc.isenabled()
        gc.disable()
        x = _I
        t0 = time.perf_counter()
        for _ in range(PROBE_MULS):
            x = mat_mul(x, _A, 49)
        self.seconds.append(time.perf_counter() - t0)
        self.starts.append(t0)
        if collecting:
            gc.enable()
        self._busy = False

    def reference_seconds(self, t0, t1):
        """The span [t0, t1] of perf_counter, at the reference speed.

        A probe that starts inside the span also ends inside it: the handler
        runs to its end before the code that reads t1 resumes."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        around = self.seconds[max(i - 1, 0):j + 1]
        speed = statistics.fmean(PROBE_REF_S / s for s in around)
        return (t1 - t0 - sum(self.seconds[i:j])) * speed
