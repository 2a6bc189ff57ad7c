"""Machine-speed sampling, to normalise times on a noisy host.

On a cloud VM that shares its CPUs with other tenants (the benchmark was
tuned on a 2-vCPU Xeon VM), the same work can take 1.8 times longer from
one few-second window to the next. CPU time tracks wall time, so the cause
is contention rather than preemption, and the two vCPUs vary
independently. A child process therefore
samples its own speed while it works: a SIGALRM every SAMPLE_INTERVAL_S
seconds runs ``probe()``, a fixed piece of Fraction arithmetic that does
not touch superosc, so a change to superosc cannot move it. ``normalise``
removes the probes' own time from an interval and rescales the rest by
PROBE_NOMINAL_S over the mean probe time in that interval. The reported
times are then seconds of a machine that runs the probe in
PROBE_NOMINAL_S. On repeated verify-deep repetitions this cut the
interquartile spread of the work time from 12 % to 2.6 %. The probes cost
about 1 % of the interval, and the run record keeps the raw wall-clock
figures beside the normalised ones.
"""

import signal
import time
from fractions import Fraction

#: a typical probe time on the 2-vCPU Xeon VM the benchmark was tuned on
PROBE_NOMINAL_S = 0.0018
SAMPLE_INTERVAL_S = 0.2


def probe() -> float:
    start = time.monotonic()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, i % 5 + 1)
    return time.monotonic() - start


class Sampler:
    """Runs probe() now and then every SAMPLE_INTERVAL_S seconds until
    stop(); ``samples`` holds (start, duration) pairs."""

    def __init__(self):
        self.samples = []

    def _sample(self, *_):
        start = time.monotonic()
        self.samples.append((start, probe()))

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def normalise(wall_s: float, samples, start: float, end: float) -> float:
    """wall_s, spent between start and end, less the probes run in that
    interval, in seconds of the nominal machine."""
    inside = [d for t, d in samples if start <= t < end]
    if not inside:
        raise ValueError("no speed sample in the interval")
    return (wall_s - sum(inside)) * PROBE_NOMINAL_S * len(inside) / sum(inside)
