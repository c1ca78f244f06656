"""How fast the shared host runs, measured with a fixed reference kernel.

The benchmark runs on a VM whose CPU speed swings by up to 2x from contention
on the host, in spells of seconds to minutes; process CPU time follows wall
time, so no clock separates the program's work from the host's load. The
reference kernel is fixed interpreter-bound work of the kind the workloads do
(gradient steps on a 3-vector with small numpy calls, a norm, one dict row
per step) and calls no mtlopt code, so its time changes only with the host.
Its time on a quiet host, REFERENCE_S, over its time now is the host's
relative speed; a time measured at that speed, times the speed, is the time
at the host's quiet speed. See NOTES.md.
"""

import signal
import time

import numpy as np

REFERENCE_REPS = 60
# the kernel's time on a quiet host: about its fifth percentile over 5,000
# runs in quiet spells of the 2.0 GHz Xeon VM the benchmark was tuned on
REFERENCE_S = 0.00034
# wall time between probes while an operation runs
PROBE_PERIOD_S = 0.02

_M = np.random.default_rng(0).standard_normal((3, 3))
_MATRIX = _M @ _M.T + np.eye(3)


def kernel() -> float:
    """Seconds one run of the reference kernel takes now."""
    v, rows = np.ones(3), []
    t0 = time.perf_counter()
    for step in range(REFERENCE_REPS):
        g = _MATRIX @ v - 0.1
        v = v - 0.01 * g
        rows.append({"step": step, "loss": float(v @ v), "grad_norm": float(np.sqrt(np.dot(g, g)))})
    return time.perf_counter() - t0


def speed(samples) -> float:
    """The host's mean relative speed over kernel times `samples`."""
    return sum(REFERENCE_S / k for k in samples) / len(samples)


class Probe:
    """Samples the host's speed while an operation runs.

    Every PROBE_PERIOD_S of wall time a timer signal runs the kernel. The
    handler runs between bytecodes of the interrupted operation, on the same
    core, so the samples see the contention the operation sees.
    """

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, lambda signum, frame: self.samples.append(kernel()))

    def measure(self, fn):
        """Run fn(); return (its value, seconds, reference seconds). Seconds
        are the operation's own wall time, less the probes inside it;
        reference seconds are that time at the host's quiet speed, scaled by
        the mean speed of the samples, one of them taken just before."""
        self.samples = [kernel()]
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        s0 = time.perf_counter()
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        own = time.perf_counter() - s0 - sum(self.samples[1:])
        return value, own, own * speed(self.samples)
