"""The benchmark's own arithmetic and its clock for the machine's speed.

Apart from :func:`calibration_s`, everything here is a pure function of
plain numbers, so the self-tests in ``test_perfbench.py`` can pin it
without running a workload.
"""

from __future__ import annotations

import math
import statistics
import time
from bisect import bisect_right
from collections.abc import Sequence

import numpy as np

#: Answers that must lie beyond a tail percentile before it may be reported.
TAIL_BEYOND = 10
#: Interval-score miscoverage level: a miss costs 2/alpha per unit distance.
ALPHA = 0.2
#: What :func:`calibration_s` takes on an unloaded core of the reference
#: machine (a 2-vCPU Intel Xeon container, Python 3.11, numpy 2.4).
CALIBRATION_REFERENCE_S = 0.015


def check_tail(samples: int, p: float) -> float:
    """``p``, if at least ten of ``samples`` answers lie beyond it."""
    if samples * (100.0 - p) / 100.0 < TAIL_BEYOND - 1e-9:
        raise ValueError(f"p{p:g} of {samples} answers has fewer than {TAIL_BEYOND} beyond it")
    return p


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with ``p``% at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def relative_error(estimate: float, exact: float) -> float:
    """``|est - exact| / max(|exact|, 1)``: absolute error below one unit."""
    return abs(estimate - exact) / max(abs(exact), 1.0)


def interval_score(low: float, high: float, exact: float) -> float:
    """Interval score at ``ALPHA``, scaled like :func:`relative_error`.

    ``(high - low) + (2/alpha) * dist(exact, [low, high])``: a sound,
    narrow bound scores near zero; a zero-width bound that misses pays ten
    times its miss distance.
    """
    if low > high:
        raise ValueError(f"inverted interval [{low}, {high}]")
    miss = max(low - exact, exact - high, 0.0)
    return ((high - low) + (2.0 / ALPHA) * miss) / max(abs(exact), 1.0)


def covers(low: float, high: float, exact: float) -> bool:
    """True when the reported interval contains the exact answer."""
    return low <= exact <= high


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of an empty sample")
    return math.fsum(values) / len(values)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def trimmed_mean(values: Sequence[float], worst: float = 0.05) -> float:
    """Mean of ``values`` without their largest ``worst`` share.

    Error scores are heavy-tailed: a few answers in a run err by orders of
    magnitude more than the rest, and which few depends on the seed.
    """
    if not values:
        raise ValueError("trimmed mean of an empty sample")
    kept = sorted(values)[: max(1, math.ceil(len(values) * (1.0 - worst)))]
    return math.fsum(kept) / len(kept)


def calibration_s() -> float:
    """Seconds a fixed mix of interpreter and small-numpy work takes right now.

    The work resembles the library's (bisect, float arithmetic, list and
    dict stores, small array reductions) and involves none of its code, so
    its time tracks only how fast the machine is running: on a shared host
    that drifts by a quarter within a minute.  Timings are scaled by
    ``CALIBRATION_REFERENCE_S`` over the mean of the calibrations measured
    beside them.
    """
    edges = [float(i) for i in range(32)]
    counts = [0.0] * 32
    seen = {}
    x = 0.5
    start = time.perf_counter()
    for i in range(48_000):
        x = (x * 1.61803398875 + 0.1) % 31.0
        counts[bisect_right(edges, x) - 1] += 1.0
        seen[i & 255] = x
    values = np.arange(64.0)
    for _ in range(2400):
        values.sum()
        np.count_nonzero(values > 3.0)
    return time.perf_counter() - start
