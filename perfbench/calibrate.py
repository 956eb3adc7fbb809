"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of one core drifts by tens of percent over
tens of seconds as neighbours come and go; on a shared 2-vCPU virtual
machine the same 0.45 s optimizer item took from 0.27 s to 0.61 s within two
minutes, with CPU time tracking wall time.  A fixed kernel that never touches fourierdist
(small SVDs and matrix products driven from a Python loop, the optimizer's
own mix) is timed next to every timed segment, and each segment's time is
scaled by ``REFERENCE_S / kernel time``.  In the same two minutes the
scaled times of 20-second windows spread by 4% (interquartile range over
the median) against 34% unscaled.  The scaled figures are seconds at the
speed where the kernel takes ``REFERENCE_S``; they compare runs on one
machine, and a change to fourierdist cannot move the kernel.
"""

import time

import numpy as np

REFERENCE_S = 0.025
ITERATIONS = 1000
# one kernel pass per this many seconds of timed segment, within [1, MAX_REPEATS]
SECONDS_PER_REPEAT = 0.75
MAX_REPEATS = 8

# bound now, so that the traced run's wrapper around numpy.linalg.svd is not timed
_svd = np.linalg.svd
_START = np.array([[0.6, -0.3, 0.2], [0.1, 0.8, -0.4], [-0.5, 0.2, 0.7]]) * (1 + 0.5j)


def kernel_seconds():
    """Wall seconds of one pass of the calibration kernel."""
    start = time.perf_counter()
    m = _START
    for _ in range(ITERATIONS):
        u, s, vh = _svd(m)
        m = 0.5 * (u @ vh) + _START * float(s[0] > 0)
    return time.perf_counter() - start


def repeats_for(segment_seconds):
    """Kernel passes to time after a segment of the given length."""
    return max(1, min(MAX_REPEATS, round(segment_seconds / SECONDS_PER_REPEAT)))
