"""Host-speed probe: job times at a reference CPU speed.

On a shared virtual machine the CPU a job runs on switches between a fast
and a slow state every few seconds (a fixed pure-Python kernel ran 1.7
times slower in the slow one), and how long it spends in each drifts over
minutes.  CPU time tracks wall time, so the same job's wall and CPU time
both differ by up to 40% between runs, which no number of jobs in a 40-s
run averages out.

So the job process times a fixed stdlib kernel (sparse products with
Fraction coefficients, the kind of work commsyz does) every PERIOD_S of
wall time, from a SIGALRM handler, while the job runs.  The samples are
evenly spaced in wall time, so the mean of 1/probe time is the CPU's mean
speed over the job, and

    time at reference speed = measured time * REFERENCE_S * mean(1 / probe time)

is what the job would have taken with every probe at REFERENCE_S.  The
kernel lives here, not in commsyz, so a change to commsyz moves the job
time and not the scale.  A probe costs about 1% of the job.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.2
REFERENCE_S = 0.002  # a round figure near the probe's time on a 2-vCPU x86-64 VM
_KEYS = [(i, j, (i * j) % 5) for i in range(5) for j in range(5)]


def probe() -> float:
    """Seconds taken by one run of the fixed kernel."""
    t0 = perf_counter()
    out = {}
    for a in _KEYS:
        for b in _KEYS:
            k = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            out[k] = out.get(k, 0) + Fraction(a[0] + 1, b[1] + 2)
    return perf_counter() - t0


def scale(samples: list) -> float:
    """Factor from measured seconds to seconds at the reference speed."""
    return REFERENCE_S * sum(1 / p for p in samples) / len(samples)


class Sampler:
    """Probes every PERIOD_S of wall time between start() and stop()."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(probe())

    def start(self) -> None:
        self.samples.append(probe())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> float:
        """Ends probing; returns the scale over the sampled interval."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(probe())
        return scale(self.samples)
