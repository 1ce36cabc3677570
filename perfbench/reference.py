"""Exact checkpoint answers, computed outside the timed region.

:func:`exact_at` evaluates a correlated query over a prefix (landmark) or
the trailing window (sliding) with numpy, once per checkpoint.  It is the
yardstick every workload scores its answers against.  Because it is a
second implementation of the query semantics, :func:`cross_check` pins it
to the library's own ground truth, :func:`repro.core.exact.exact_series`,
at every position of a short prefix of each workload's stream (the full
streams are far too long for ``exact_series``).
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from repro.core.exact import exact_series
from repro.core.query import CorrelatedQuery
from repro.streams.model import Record

#: Tolerance for SUM answers, which the two references add in different orders.
SUM_RTOL = 1e-9


def exact_at(
    query: CorrelatedQuery, xs: np.ndarray, ys: np.ndarray, positions: Iterable[int]
) -> np.ndarray:
    """The exact answer after ``t`` tuples, for each ``t`` in ``positions``.

    Follows :class:`~repro.core.query.CorrelatedQuery` exactly: closed
    extrema bands, a strict ``x > AVG(x)``, the window mean summed with
    ``math.fsum`` like the oracle's.
    """
    if query.two_sided or query.dependent == "avg":
        raise ValueError(f"no reference for {query.describe()}")
    prefix_sums = np.cumsum(xs) if query.independent == "avg" else None
    out = []
    for t in positions:
        if not 1 <= t <= len(xs):
            raise ValueError(f"position {t} outside a stream of {len(xs)} tuples")
        lo = max(0, t - query.window) if query.is_sliding else 0
        seg = xs[lo:t]
        if query.independent == "min":
            mask = seg <= query.threshold(float(seg.min()))
        elif query.independent == "max":
            mask = seg >= query.threshold(float(seg.max()))
        else:
            if query.is_sliding:
                average = math.fsum(seg.tolist()) / len(seg)
            else:
                average = float(prefix_sums[t - 1]) / t
            mask = seg > average
        if query.dependent == "count":
            out.append(float(np.count_nonzero(mask)))
        else:
            out.append(float(ys[lo:t][mask].sum()))
    return np.asarray(out, dtype=float)


def cross_check(
    query: CorrelatedQuery, xs: np.ndarray, ys: np.ndarray, prefix: int
) -> list[str]:
    """Disagreements between :func:`exact_at` and ``exact_series`` on a prefix.

    Compares every position ``1..prefix``; counts must agree exactly,
    sums within :data:`SUM_RTOL`.  Returns one message per disagreement
    (at most five), so an empty list means the reference is trusted.
    """
    prefix = min(prefix, len(xs))
    records = [Record(x, y) for x, y in zip(xs[:prefix].tolist(), ys[:prefix].tolist())]
    truth = np.asarray(exact_series(records, query), dtype=float)
    ours = exact_at(query, xs[:prefix], ys[:prefix], range(1, prefix + 1))
    rtol = 0.0 if query.dependent == "count" else SUM_RTOL
    bad = np.flatnonzero(~np.isclose(ours, truth, rtol=rtol, atol=rtol))
    return [
        f"{query.describe()}: reference {ours[i]!r} != exact_series {truth[i]!r} "
        f"after {i + 1} tuples"
        for i in bad[:5]
    ]
