"""Landmark-window correlated aggregates with AVG as the independent
aggregate (paper Section 3.1.3).

The running mean is not monotone, but the Central Limit Theorem bounds how
far it is likely to move: after ``n`` tuples the mean stays within
``mu_hat +/- sigma_hat / sqrt(n)`` with ~68% probability (one standard
error; the multiplier is tunable, as the paper's footnote notes).  The
estimator therefore keeps its fine buckets on the focus interval::

    [mu_hat - k * sigma_hat / sqrt(n),  mu_hat + k * sigma_hat / sqrt(n)]

with two coarse *tail buckets* covering ``[min, lo]`` and ``[hi, max]`` —
the paper's bucket list ``(min, lo, ..., hi, max)``.  The threshold query
``x > mu_hat`` then almost always truncates inside the finely bucketed
region, where interpolation error is smallest.

``condition_1`` never fires (the mean cannot jump out of the data range);
``condition_2`` fires when the mean shift is material — the mean moves a
little at every step, so reallocation is gated on drift beyond a fraction
of a bucket width to avoid re-interpolating all focus mass thousands of
times.  Wholesale then re-partitions the whole interval from scratch;
piecemeal truncates/extends only at the boundaries (its "only when
absolutely necessary" discipline).

The lifecycle (warmup buffering, build, drift-gated reallocation, tail
exchange, band-mass answers) lives in :mod:`repro.core.focused`; this
module contributes only what is unique to the landmark-AVG scope: the
exact running moments, the CLT focus target, fitted-normal quantile
edges, and true-disjointness as the regime-break test (there is no
replayable window, so a disjoint jump redistributes wholesale instead of
rebuilding).
"""

from __future__ import annotations

from repro.core.focused import STRATEGIES, FocusedEstimatorBase, TwoTailSummaryMixin
from repro.core.query import CorrelatedQuery
from repro.exceptions import ConfigurationError
from repro.histograms.partition import normal_quantile_boundaries
from repro.obs.sink import ObsSink
from repro.obs.trace import Tracer
from repro.streams.columns import HAVE_NUMPY, np
from repro.streams.model import Record
from repro.structures.welford import RunningMoments

__all__ = ["LandmarkAvgEstimator", "STRATEGIES"]


def _running_extremum(seed: float, xs, better):
    """The running minimum (``better=np.minimum``) or maximum after each x.

    Equal to the scalar ``if x < mn: mn = x`` replay, including on ties:
    the only distinct floats that compare equal are +0.0 and -0.0, and
    the scalar replay keeps the earlier one.  When a zero shows up, each
    entry is therefore re-read from the last strict improvement.
    """
    values = np.concatenate(((seed,), xs))
    run = better.accumulate(values)
    if not (run == 0.0).any():
        return run[1:]
    improved = (xs < run[:-1]) if better is np.minimum else (xs > run[:-1])
    source = np.where(improved, np.arange(1, len(values)), 0)
    np.maximum.accumulate(source, out=source)
    return values[source]


class LandmarkAvgEstimator(TwoTailSummaryMixin, FocusedEstimatorBase):
    """Single-pass estimator for ``AGG-D{y : x > AVG(x)}`` over a landmark scope.

    Parameters
    ----------
    query:
        A :class:`~repro.core.query.CorrelatedQuery` with
        ``independent='avg'`` and ``window=None``.
    num_buckets:
        Total bucket budget ``m``; two of them are the tail buckets, so the
        focus interval gets ``m - 2`` fine buckets (require ``m >= 4``).
    strategy:
        ``'wholesale'`` (re-partition the interval from scratch) or
        ``'piecemeal'`` (truncate/extend at the boundaries only); both run
        when the mean's drift exceeds ``drift_tolerance``.
    policy:
        ``'uniform'`` spacing or ``'quantile'`` — quantiles of the fitted
        normal ``N(mu_hat, sigma_hat/sqrt(n))``, the paper's second
        partitioning strategy for AVG.
    k_std:
        Confidence-interval half-width in standard errors.  The paper
        presents one standard error and marks the multiplier as tunable;
        the default here is 3 (99.7% coverage), which keeps the moving
        mean inside the focus region even under mildly correlated
        arrival orders — the ablation bench sweeps this knob.
    drift_tolerance:
        Reallocation trigger (both strategies): reallocate when a focus boundary has moved more
        than this fraction of the mean inner bucket width.
    swap_period:
        Quantile-policy merge/split maintenance cadence (insertions).
    sink:
        Optional :class:`~repro.obs.sink.ObsSink` receiving lifecycle
        events (``hist.build``, ``region.shift``, ``realloc.*``,
        ``hist.swap``).
    """

    # The landmark scope keeps no replayable window, so a disjoint focus
    # jump redistributes wholesale rather than rebuilding from scratch.
    _rebuild_on_regime = False

    def __init__(
        self,
        query: CorrelatedQuery,
        num_buckets: int = 10,
        strategy: str = "piecemeal",
        policy: str = "uniform",
        k_std: float = 3.0,
        drift_tolerance: float = 0.3,
        swap_period: int = 32,
        sink: ObsSink | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if query.independent != "avg":
            raise ConfigurationError(
                f"LandmarkAvgEstimator needs an avg query, got {query.independent!r}"
            )
        if query.is_sliding:
            raise ConfigurationError("query has a sliding window; use SlidingAvgEstimator")
        self._init_kernel(query, num_buckets, strategy, policy, swap_period, sink, tracer)
        if k_std <= 0:
            raise ConfigurationError(f"k_std must be positive, got {k_std}")
        if drift_tolerance <= 0:
            raise ConfigurationError(f"drift_tolerance must be positive, got {drift_tolerance}")
        self._k = k_std
        self._drift_tolerance = drift_tolerance
        self._moments = RunningMoments()
        self._init_two_tails()

    @property
    def mean(self) -> float:
        """The exact running mean (exactly computable in one pass)."""
        return self._moments.mean

    def _independent_value(self) -> float:
        return self._moments.mean

    def _span(self) -> tuple[float, float]:
        # Landmark min/max are exactly trackable: the tail spans are exact.
        return (self._moments.minimum, self._moments.maximum)

    def _ingest(self, record: Record) -> None:
        self._moments.push(record.x)
        return None

    def _target_interval(self) -> tuple[float, float]:
        return self._clt_interval(self._k * self._moments.standard_error)

    def _quantile_edges(self, lo: float, hi: float) -> list[float]:
        return normal_quantile_boundaries(
            self._moments.mean, self._moments.standard_error, self._inner_m, lo, hi
        )

    # --------------------------------------------------- columnar kernel

    def _columns_supported(self, collect: str) -> bool:
        # Per-record answers would need band_mass over the live summary
        # for every tuple; the vectorised path only skips them, so
        # collect="all" stays on the scalar loop.
        return (
            HAVE_NUMPY
            and collect != "all"
            and not self._tracer.enabled
            and self._policy != "quantile"
        )

    def _steady_columns(self, xs, ys, record_at, outputs, collect: str) -> None:
        """Vectorised steady-state ingestion for the landmark-AVG scope.

        Python replays only the running mean, the one step that must run
        tuple by tuple; ``m2`` is the seeded ``np.add.accumulate`` of its
        increments ``(x - mean_before) * (x - mean_after)``, the count is
        a range and the extrema are running accumulations, so the
        per-record moment trace is bit-identical to ``RunningMoments.push``.
        The CLT focus target is then evaluated for the whole chunk at
        once, and the stream is cut into segments at *boundary records* —
        reallocation triggers and the first non-finite input — which run
        through the real scalar machinery after the moments are synced.
        Between boundaries the focus region is static, so each segment is
        routed with one ``searchsorted`` over the account row ``[left
        tail, *fine buckets, right tail]`` and credited with one
        order-preserving account scatter, as the scalar loop would.
        """
        n = len(xs)
        moments = self._moments
        cnt0 = moments._count
        mean = moments._mean
        bad = ~(np.isfinite(xs) & np.isfinite(ys))
        first_bad = int(np.argmax(bad)) if bad.any() else n
        # The trace stops at the first non-finite record: the scalar
        # path raises there, so nothing after it is ever read.
        tx = xs[:first_bad]
        cnt_l = range(cnt0 + 1, cnt0 + first_bad + 1)
        mean_l = [mean := mean + (x - mean) / k for x, k in zip(tx.tolist(), cnt_l)]
        means = np.concatenate(((moments._mean,), mean_l))
        mean_a = means[1:]
        m2_a = np.empty(first_bad + 1)
        m2_a[0] = moments._m2
        # Python floats overflow to inf silently; the numpy trace must too.
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(tx - means[:-1], tx - mean_a, out=m2_a[1:])
            np.add.accumulate(m2_a, out=m2_a)
        m2_a = m2_a[1:]
        mn_a = _running_extremum(moments._min, tx, np.minimum)
        mx_a = _running_extremum(moments._max, tx, np.maximum)

        cnt_a = np.arange(cnt0 + 1, cnt0 + first_bad + 1, dtype=np.float64)
        # _clt_interval, op for op (max/min ties on ±0.0 only affect the
        # sign of a zero, which the trigger comparison takes abs() of).
        se = np.sqrt(np.maximum(m2_a / cnt_a, 0.0)) / np.sqrt(cnt_a)
        half = self._k * se
        if self._query.two_sided:
            half = half + self._query.epsilon
        half = np.where(half <= 0.0, np.maximum(np.abs(mean_a) * 1e-9, 1e-12), half)
        lo_a = np.maximum(mean_a - half, mn_a)
        hi_a = np.minimum(mean_a + half, mx_a)
        degenerate = hi_a <= lo_a
        if degenerate.any():
            span = np.maximum(
                np.maximum((mx_a - mn_a) * 1e-6, np.abs(mean_a) * 1e-9), 1e-12
            )
            lo_a = np.where(degenerate, np.maximum(mean_a - span, mn_a), lo_a)
            hi_a = np.where(degenerate, lo_a + 2.0 * span, hi_a)

        pos = 0
        scan_block = 1024
        while pos < n:
            inner = self._inner
            assert inner is not None
            il = inner.low
            ih = inner.high
            tolerance = self._drift_tolerance * ((ih - il) / self._inner_m)
            # First reallocation trigger at or after pos, scanned in
            # blocks so a trigger-dense stream stays O(n) overall.
            boundary = first_bad
            block = pos
            while block < first_bad:
                stop = min(block + scan_block, first_bad)
                trig = (np.abs(lo_a[block:stop] - il) > tolerance) | (
                    np.abs(hi_a[block:stop] - ih) > tolerance
                )
                if trig.any():
                    boundary = block + int(np.argmax(trig))
                    break
                block = stop

            if boundary > pos:
                self._credit_accounts(
                    np.searchsorted(self._account_edges(), xs[pos:boundary], side="right"),
                    ys[pos:boundary],
                )
                # Sync the moments to the segment's last trace entry.  With
                # no segment they already hold the entry before pos: the
                # chunk's start state, or the boundary record's own push.
                j = boundary - 1
                moments.load(cnt_l[j], mean_l[j], float(m2_a[j]), float(mn_a[j]), float(mx_a[j]))
            if boundary == n:
                break
            # The boundary record runs through the real scalar path: its
            # push re-derives the trace entry bit for bit, and reallocation
            # (or the non-finite raise) happens exactly where the scalar
            # loop would have put it.
            self._absorb(record_at(boundary))
            pos = boundary + 1

    def _regime_break(self, lo: float, hi: float, old_lo: float, old_hi: float) -> bool:
        # The mean cannot jump without the data moving it: only true
        # disjointness (possible with very narrow focus intervals) forces
        # the wholesale path.
        return hi <= old_lo or lo >= old_hi

    def _merge_steady(self, other: "LandmarkAvgEstimator") -> None:
        """Fold another landmark-AVG summary into this one.

        Moments merge exactly (parallel Welford), which also widens our
        tail spans to cover the union's extrema; then each of ``other``'s
        regions — left tail span, every fine bucket, right tail span — is
        re-poured across our three regions pro-rata.  Count, weight, mean
        and extrema are preserved exactly; per-band placement of the
        re-poured mass accumulates into ``merge_error_bound``.
        """
        assert self._inner is not None and other._inner is not None
        o_xmin, o_xmax = other._span()
        self._moments.merge_from(other._moments)
        slack = self._merge_pour(o_xmin, other._inner.low, other._left_tail, coarse=True)
        edges = other._inner.edges
        for i, (left, right) in enumerate(zip(edges, edges[1:])):
            slack += self._merge_pour(left, right, other._inner.bucket_mass(i))
        slack += self._merge_pour(other._inner.high, o_xmax, other._right_tail, coarse=True)
        self._merge_slack = self._merge_slack + slack + other._merge_slack
        # The merged moments moved the CLT target (possibly far, under
        # range partitioning); retarget now so queries against the merged
        # summary truncate inside fine buckets, as they would have after
        # one more single-process step.
        lo, hi = self._target_interval()
        if self._should_reallocate(lo, hi):
            self._reallocate(lo, hi)
