"""Machine-speed calibration for the benchmark's timings.

On a host shared with other work, the speed of a pure-Python loop can change
by a factor of up to 2 for seconds to minutes at a time, while the ratio of
two pure-Python workloads' times stays nearly fixed.  The benchmark
therefore times a fixed calibration loop next to every timed operation and
reports times in reference seconds:

    reference time = wall time * NOMINAL_NS / (calibration loop time nearby)

NOMINAL_NS is the loop's time on an unloaded x86-64 core running CPython
3.11, so reference seconds read close to wall seconds on such a machine.  The
loop touches no kspecfun code, so a change to the program moves the
workload's time and leaves the loop's time alone.
"""

from __future__ import annotations

import math
from time import perf_counter_ns

NOMINAL_NS = 250_000
_REPEATS = 3


def _loop() -> float:
    """Fixed work in the mix the series code uses: float arithmetic, math
    calls, small tuples and function calls."""
    s = 0.0
    pair = (0.0, 0.0)
    for i in range(1, 600):
        x = i * 0.003 + 0.5
        s += math.exp(-x) * math.log(x) + math.lgamma(x) / (x + 1.0)
        pair = (pair[1] + x, s)
        s = pair[1] - pair[0] * 1e-9
    return s


def sample() -> int:
    """Median time of the calibration loop over a few runs, in ns."""
    times = []
    for _ in range(_REPEATS):
        start = perf_counter_ns()
        _loop()
        times.append(perf_counter_ns() - start)
    times.sort()
    return times[_REPEATS // 2]


def factor(before: int, after: int) -> float:
    """Scale from wall time to reference time for an operation timed
    between two calibration samples."""
    return 2.0 * NOMINAL_NS / (before + after)
