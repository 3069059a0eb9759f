"""Machine-speed calibration: a fixed kernel timed next to the measured work.

The machine this benchmark runs on may be shared: when a neighbour loads the
same physical core, every instruction stream slows down by tens of percent
for seconds at a time, with no steal time to show for it. The kernel below
is the benchmark's own code and never changes with the program. It is timed
in short samples between operations. A time measured while the samples
read ``s`` seconds per kernel call is multiplied by :func:`factor` of ``s``,
so it reads about as if the machine had run at the reference speed
throughout.

The kernel mixes what the measured workloads spend their time on: small
numpy array arithmetic, a scipy root search with a Python callback, scalar
float math in Python loops and float-to-text formatting.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.optimize import brentq

# Seconds per kernel call at the reference speed. Any fixed value would do,
# as only ratios of scaled times are compared; 1 ms is close to the kernel's
# time on a quiet 2-core Intel Xeon virtual machine (Python 3.11, numpy 2.4,
# scipy 1.17), so scaled times read close to measured ones there.
REF_KERNEL_S = 1.0e-3
# The worker takes a sample after every EVERY_S of operation time (or after
# each operation, when one takes longer); a sample lasts SHARE of the
# operation time since the previous one, at most MAX_SAMPLE_S. The machine's
# speed changes within a second, so samples are short and frequent.
EVERY_S = 0.05
SHARE = 0.2
MAX_SAMPLE_S = 0.05
# The measured workloads slow down less than the kernel does: timed next to
# it, an operation's time grew as the kernel's time to a power of 0.8 to 0.9
# (log-log regression over repeated operations on the machine above), and
# scaling by this power gave the smallest run-to-run spread on all four
# workloads (0.6 to 1.0 were tried).
ELASTICITY = 0.8
# Samples taken just before a worker starts and just after its set-up, whose
# mean scales the set-up time.
SETUP_SAMPLE_S = 0.2

_GRID = np.geomspace(1e-3, 1e3, 64)


def kernel() -> float:
    """One fixed unit of work, about 1 ms on a quiet machine."""
    s = 0.0
    for j in range(20):
        c = np.array([1.0, -0.5 - 0.01 * j, 0.02, -1e-4])
        v = np.polyval(c[::-1], -_GRID**2) + _GRID
        s += float(v.sum())
        s += brentq(lambda x: x * x * x - 2.0 - 0.01 * j, 0.0, 3.0)
        for x in _GRID[:16]:
            s += math.exp(-0.25 * x) / (1.0 + x * x)
        s += len(",".join(repr(float(t)) for t in _GRID[:8]))
    return s


def factor(kernel_s: float) -> float:
    """Multiplier for a time measured while one kernel call took ``kernel_s``."""
    return (REF_KERNEL_S / kernel_s) ** ELASTICITY


def sample(seconds: float) -> float:
    """Seconds per kernel call, over kernel calls for at least ``seconds``."""
    n = 0
    t0 = time.perf_counter()
    end = t0 + seconds
    while True:
        kernel()
        n += 1
        t = time.perf_counter()
        if t >= end:
            return (t - t0) / n
