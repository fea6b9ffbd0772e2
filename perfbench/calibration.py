"""A fixed kernel that measures how fast the machine runs right now.

The virtual machine this benchmark was written on shares its cores with
other virtual machines, and their load slows every process on it, pure
Python loops and small numpy calls alike, by up to a half for seconds to
minutes at a time (see README.md).  A wall time measured there mostly
tells when it was measured.  So the benchmark times this kernel, which
does not touch tancat, just before and just after each measured piece
of work, and reports the work's time at the reference speed:

    wall time * REF_S / (mean time of the kernel around it)

The kernel mixes, in about equal parts, the three kinds of work that
followed that slowdown most closely when measured next to the
workloads: an interpreted loop of dict lookups and integer arithmetic,
numpy calls on a small array, and numpy calls on an array that fits in
the core's L2 cache but not in L1 (the size of the tower kernels'
operands on the large-batch workload).  Its inputs are fixed, so its own
work never changes; a change to tancat moves the reported time exactly
as it moves the wall time.
"""

import time

import numpy as np

# the kernel's time at the reference speed, in seconds: a round figure
# near its median (7-8 ms) on the machine that README.md describes.  It is
# only a scale: reported times are in seconds of a machine on which the
# kernel takes this long.
REF_S = 0.008

_TABLE = {i: i for i in range(1000)}
_SMALL = np.linspace(-1.0, 1.0, 4000)        # 32 KB
_MID = np.linspace(-1.0, 1.0, 100_000)       # 800 KB


def calibrate() -> float:
    """Seconds one pass of the kernel takes now."""
    small, mid = _SMALL.copy(), _MID.copy()
    total = 0
    t0 = time.perf_counter()
    for i in range(20000):
        total += _TABLE[i % 1000] * i
    for _ in range(500):
        np.multiply(small, 1.0001, out=small)
        small.sum()
    for _ in range(35):
        np.multiply(mid, 1.0001, out=mid)
        mid.sum()
    return time.perf_counter() - t0


def to_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time at the reference speed, from the kernel's
    times just before and just after it."""
    return seconds * REF_S / (0.5 * (before + after))


calibrate()   # the first pass fills numpy's and the interpreter's caches
