"""Machine-speed calibration for timings taken on a shared machine.

On a shared virtual machine the speed of the CPU a process gets drifts
by tens of percent over seconds and minutes, with other tenants' load.
To take that out of the figures, a fixed chunk of pure-Python work,
``chunk``, is timed after every timed call (set-up or task).  A call's
speed factor is ``REF_CHUNK_S`` (the chunk's time at the reference speed)
over the median chunk time of the calibration samples nearest to it, and
the call's time multiplied by that factor is the time the same work would
take at the reference speed.  The chunk mixes what kassoc's code does
most (frozenset algebra, dict look-ups keyed by tuples, ``Fraction``
arithmetic), so a slow stretch slows chunk and calls alike.  It does not
touch kassoc: a change to kassoc changes the calls' times and not the
factor.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

REF_CHUNK_S = 1e-4  # about one chunk on a 2-vCPU shared VM, Python 3.11, fast stretch
SHARE = 0.05  # calibration time as a share of the time it calibrates
WINDOW = 3  # samples on each side whose median chunk time scales a call

_SETS = tuple(frozenset(range(i, i + 5)) for i in range(10))


def chunk():
    memo = {}
    acc = Fraction(0)
    for i, a in enumerate(_SETS):
        for b in _SETS:
            key = (a & b, i & 3)
            memo[key] = memo.get(key, 0) + len(a | b)
        acc += Fraction(len(memo), i + 1)
    return acc


class Speed:
    """Calibration samples of one round, one after each timed call."""

    def __init__(self):
        self.chunk_s: list[float] = []  # mean chunk time of each sample

    def sample(self, busy_s):
        """Time enough chunks to take about ``SHARE`` of ``busy_s``, at least one."""
        n = max(1, round(busy_s * SHARE / REF_CHUNK_S))
        t0 = perf_counter()
        for _ in range(n):
            chunk()
        self.chunk_s.append((perf_counter() - t0) / n)

    def factors(self):
        """The speed factor of each sample's call, in order: multiply the
        call's time by it."""
        c = self.chunk_s
        return [REF_CHUNK_S / statistics.median(c[max(0, i - WINDOW):i + WINDOW + 1])
                for i in range(len(c))]
