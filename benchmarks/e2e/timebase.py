"""The noise detector: a fixed kernel that tells quiet moments from busy ones.

The host's speed shifts by tens of percent in bursts of 50-500 ms (another
tenant thrashing the shared cache).  A fixed *calibration kernel* runs
between timed slices; it is memory-touching like the program under test
(dict probes over a 200k-key table, a keyed sort, a set intersection), and
such a burst doubles its time while slowing the program by 15-30 %.  That
makes it a sharp detector and a poor yardstick: dividing program time by
kernel time over-corrects (see README, "Time base"), so the harness uses
the kernel only to *select* the slices the host left alone and reports
their wall time as measured.

``host_speed`` (kernel time over ``C_REF_S``) is reported per run so that
runs on different boxes, or on a box that got slower, can be told apart.
"""

from __future__ import annotations

import statistics
import time
from operator import itemgetter

#: Kernel wall seconds at a quiet moment on the reference box (2-core
#: sandbox, CPython 3.11): the unit of ``host_speed``.
C_REF_S = 0.00235

#: A run whose lowest and highest kernel reading differ by more than this
#: factor is flagged ``noisy``.
NOISY_SPEED_RATIO = 1.5

_TABLE_KEYS = 200_000
_PROBES = 6_000
_SORT_ROWS = 2_000
_SET_SPAN = 6_000


class Kernel:
    """The fixed calibration workload.  Build once per process."""

    def __init__(self) -> None:
        keys = [f"tag{i:07d}" for i in range(_TABLE_KEYS)]
        self._table = {key: i for i, key in enumerate(keys)}
        # A large prime stride walks the table out of allocation order, so
        # successive probes land on different cache lines.
        self._probe = [keys[(i * 7919) % _TABLE_KEYS] for i in range(_PROBES)]
        self._rows = [((i * 2654435761) % 1000003, i) for i in range(_SORT_ROWS)]
        self._left = set(range(0, _SET_SPAN, 2))
        self._right = set(range(0, _SET_SPAN, 3))
        self._expected = sum(self._table[key] for key in self._probe)

    def run(self) -> float:
        """One kernel pass; returns its wall seconds."""
        table = self._table
        start = time.perf_counter()
        total = 0
        for key in self._probe:
            total += table[key]
        ordered = sorted(self._rows, key=itemgetter(0))
        common = self._left & self._right
        elapsed = time.perf_counter() - start
        if total != self._expected or len(ordered) != _SORT_ROWS or not common:
            raise RuntimeError("calibration kernel computed a wrong result")
        return elapsed


def percentile(sorted_values, p: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = (len(sorted_values) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (rank - low)


def speed_summary(speeds) -> dict:
    """``host_speed`` block of a result: median/min/max and the noise flag."""
    low, high = min(speeds), max(speeds)
    return {
        "median": statistics.median(speeds),
        "min": low,
        "max": high,
        "noisy": high / low > NOISY_SPEED_RATIO,
    }
