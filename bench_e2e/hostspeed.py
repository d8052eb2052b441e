"""How fast is the host right now?  A fixed piece of work, timed.

This shared two-core VM moves between speeds up to 50 % apart and stays
in one for seconds to minutes at a time (measured: the same
``knn_direct`` block runs at 5 000, 6 500 or 8 600 queries per second,
a ``tcp_colocated`` request takes 3.8 or 4.7 ms, and a fixed
interpreter loop moves by the same ratios).  Ten fresh-process runs of a
workload spread by 10 to 25 % on wall clock alone, and two sets of ten
taken half an hour apart can differ by more than that, which no median
over three rounds removes.

So a timed section is accompanied by *spins* (before and after a short
block, every 100 ms inside a long one) that give the host's slowdown
``s`` relative to :data:`REFERENCE_S`, and by the CPU seconds every
process involved used during it.  The share of the section's wall
during which a CPU was busy is divided by ``s``; the share spent
waiting (the server's 2 ms batch window does not get shorter on a
faster CPU) is left as it is::

    corrected = raw * (1 - busy / wall * (1 - 1 / s))

One rule for every workload: a CPU-bound block has ``busy / wall`` of
about 1 and is divided by ``s``; a ``tcp_solo`` block has about 0.3.
The raw wall-clock figures are printed beside the corrected ones.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List

import numpy as np

__all__ = ["REFERENCE_S", "HostSpeed", "slowdown_of", "spin"]

_clock = time.perf_counter

#: What one spin takes on the container the benchmark was written in,
#: in its usual state; a slowdown of 1.0 means "as fast as that".
REFERENCE_S = 0.0035


class _Cell:
    """A small object for the spin's pointer-chasing part."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


_CELLS = [_Cell(i * 0.37 % 11.0, i * 0.91 % 7.0) for i in range(12000)]
_LOW = np.linspace(0.0, 9.0, 50)
_HIGH = _LOW + 1.0


def spin() -> float:
    """Seconds the host needs for a fixed piece of interpreter work.

    Three parts, after what the workloads spend their time on: float
    arithmetic in a loop, a walk over 12 000 small objects
    (``SpatialNetwork.snap``, the simulator's host list), and numpy
    calls on 50-element arrays (the R-tree kernels).  About 4 ms.
    """
    start = _clock()
    acc = 0.0
    for i in range(7000):
        acc += math.hypot(i * 0.5, acc % 3.0)
    nearest = math.inf
    for cell in _CELLS:
        gap = (cell.x - 5.0) * (cell.x - 5.0) + (cell.y - 3.0) * (cell.y - 3.0)
        if gap < nearest:
            nearest = gap
    for _ in range(120):
        gaps = np.maximum(np.maximum(_LOW - 5.0, 0.0), 5.0 - _HIGH)
        np.argsort(
            np.fromiter(
                map(math.hypot, gaps.tolist(), gaps.tolist()), np.float64, count=50
            ),
            kind="stable",
        )
    return _clock() - start


def slowdown_of(spins: List[float]) -> float:
    """The slowdown a set of spins saw: their median over the reference.

    The median, because a preempted spin is an outlier, and with five
    or more spins two of those change nothing.
    """
    return statistics.median(spins) / REFERENCE_S


class HostSpeed:
    """Brackets timed sections with five spins on either side."""

    def __init__(self) -> None:
        self._before: List[float] = []
        self.samples: List[float] = []

    def mark(self) -> None:
        """Spin before a timed section."""
        self._before = [spin() for _ in range(5)]

    def factor(self, wall_s: float, busy_s: float, inside: List[float]) -> float:
        """Spin after the section; what to multiply its timings by.

        ``inside`` are the spins a long section took as it ran; with
        five or more of those they say more about the section than the
        ten around it.
        """
        spins = inside if len(inside) >= 5 else self._before + [spin() for _ in range(5)]
        slowdown = slowdown_of(spins)
        self.samples.append(slowdown)
        return 1.0 - min(busy_s / wall_s, 1.0) * (1.0 - 1.0 / slowdown)
