"""Per-key estimator banks: one correlated aggregate per customer/interface.

The paper's motivating applications maintain summaries "about a large
number of customers" (telephone fraud) or per router interface (network
monitoring) — i.e. one constant-space estimator per group-by key.  A
:class:`KeyedEstimatorBank` owns that fan-out: records are routed by key,
estimators are created lazily on first sight of a key, and idle keys can be
evicted to bound total memory.

Only *online* methods are allowed by default (focused estimators and
heuristics): the offline baselines need the full stream per key up front,
which contradicts the lazily-keyed setting.  ``equiwidth`` is accepted when
an explicit a-priori ``domain`` is supplied.

A full estimator per key is the right shape up to thousands of keys; at
millions, use :class:`repro.keyed.GatedKeyedBank`, which promotes only
heavy keys to full estimators and keeps the tail in a Space-Saving sketch
with provable bounds.
"""

from __future__ import annotations

import heapq
import math
import pickle
from collections.abc import Hashable, Iterable, Iterator
from operator import itemgetter

from repro.core.engine import FOCUSED_METHODS, build_estimator
from repro.core.query import CorrelatedQuery
from repro.exceptions import ConfigurationError, StreamError
from repro.obs.sink import NULL_SINK, ObsSink
from repro.streams.model import Record, StreamAlgorithm, ensure_finite

#: Methods that need no offline knowledge and can be created lazily per key.
ONLINE_METHODS = FOCUSED_METHODS + (
    "streaming-equidepth",
    "heuristic-reset",
    "heuristic-continue",
    "heuristic-running",
)

#: Estimators sampled (pickled) per ``obs_state`` call to estimate memory.
_MEMORY_SAMPLE = 8
#: Sort key of a ``(key, estimate)`` pair.
_ESTIMATE = itemgetter(1)


def check_online_method(method: str, kwargs: dict[str, object]) -> None:
    """Reject methods that cannot be instantiated lazily per key."""
    if method not in ONLINE_METHODS and not (
        method == "equiwidth" and "domain" in kwargs
    ):
        raise ConfigurationError(
            f"keyed banks need an online method ({ONLINE_METHODS}) or "
            "equiwidth with an explicit domain=; offline baselines cannot "
            f"be created lazily per key (got {method!r})"
        )


def rank_estimates(
    items: Iterable[tuple[Hashable, float]], n: int | None = None
) -> list[tuple[Hashable, float]]:
    """Rank ``(key, estimate)`` pairs by estimate, NaN-safe and stable.

    ``sorted(..., reverse=True)`` over raw floats lets a single NaN land
    anywhere (every comparison against NaN is False, so its final position
    depends on the sort's merge order).  Here NaN estimates always sort
    *last*, in first-seen order; finite ties also keep first-seen order.
    The finite head is heap-selected (:func:`heapq.nlargest`,
    O(len · log n), documented equal to ``sorted(..., reverse=True)[:n]``),
    so a bank ranks its top keys without sorting every key.  ``items`` may
    be a generator and is consumed once.
    """
    finite: list[tuple[Hashable, float]] = []
    nans: list[tuple[Hashable, float]] = []
    for pair in items:
        (nans if math.isnan(pair[1]) else finite).append(pair)
    if n is None:
        n = len(finite) + len(nans)
    ranked = heapq.nlargest(n, finite, key=_ESTIMATE)
    return ranked + nans[: n - len(ranked)]


def escape_key_name(key: Hashable) -> str:
    """Render ``key`` for a dotted gauge name without colliding with ``.``.

    The gauge namespace uses ``.`` as its hierarchy separator, so a key
    containing one (``"a.b"``) would silently alias another key's child
    gauge.  Backslash-escape both the escape character and the separator.
    """
    return str(key).replace("\\", "\\\\").replace(".", "\\.")


def key_gauge_names(keys: Iterable[Hashable]) -> dict[Hashable, str]:
    """Deterministic, collision-free gauge names for every key.

    Distinct keys with identical renderings (``1`` and ``"1"`` both print
    as ``1``) get ``#2``, ``#3``, ... suffixes in first-seen order, so two
    keys never write the same gauge.
    """
    names: dict[Hashable, str] = {}
    used: dict[str, int] = {}
    for key in keys:
        base = escape_key_name(key)
        seen = used.get(base, 0)
        used[base] = seen + 1
        names[key] = base if seen == 0 else f"{base}#{seen + 1}"
    return names


class KeyedEstimatorBank:
    """One lazily created estimator per group-by key.

    Parameters
    ----------
    query:
        The correlated aggregate every key computes.
    method:
        An online method name (see :data:`ONLINE_METHODS`), or
        ``'equiwidth'`` together with an explicit ``domain``.
    num_buckets:
        Bucket budget per key.
    max_keys:
        Optional hard cap on the number of live keys; exceeding it raises
        rather than silently degrading (callers choose an eviction policy
        via :meth:`evict`).
    sink:
        Optional :class:`~repro.obs.sink.ObsSink`; the bank emits a
        ``keyed.evict`` event per eviction.
    obs_key_detail:
        Number of top-ranked keys whose per-estimator gauges appear in
        :meth:`obs_state` (0 — the default — reports aggregates only, so
        gauge cardinality never scales with live keys).
    kwargs:
        Extra configuration forwarded to each estimator (``k_std``,
        ``domain``, ...).
    """

    def __init__(
        self,
        query: CorrelatedQuery,
        method: str = "piecemeal-uniform",
        num_buckets: int = 10,
        max_keys: int | None = None,
        sink: ObsSink | None = None,
        obs_key_detail: int = 0,
        **kwargs: object,
    ) -> None:
        check_online_method(method, kwargs)
        if max_keys is not None and max_keys <= 0:
            raise ConfigurationError(f"max_keys must be positive, got {max_keys}")
        if obs_key_detail < 0:
            raise ConfigurationError(
                f"obs_key_detail must be >= 0, got {obs_key_detail}"
            )
        self._query = query
        self._method = method
        self._num_buckets = num_buckets
        self._max_keys = max_keys
        self._obs = sink if sink is not None else NULL_SINK
        self._obs_key_detail = obs_key_detail
        self._kwargs = kwargs
        self._estimators: dict[Hashable, StreamAlgorithm] = {}
        self._updates: dict[Hashable, int] = {}

    @property
    def query(self) -> CorrelatedQuery:
        return self._query

    def __len__(self) -> int:
        """Number of live keys."""
        return len(self._estimators)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._estimators

    def keys(self) -> Iterator[Hashable]:
        """Live keys, in first-seen order."""
        return iter(self._estimators)

    def _estimator_for(self, key: Hashable) -> StreamAlgorithm:
        estimator = self._estimators.get(key)
        if estimator is None:
            if self._max_keys is not None and len(self._estimators) >= self._max_keys:
                raise StreamError(
                    f"key cap reached ({self._max_keys}); evict() before adding "
                    f"new key {key!r}"
                )
            estimator = build_estimator(
                self._query, self._method, num_buckets=self._num_buckets, **self._kwargs
            )
            self._estimators[key] = estimator
            self._updates[key] = 0
        return estimator

    def update(self, key: Hashable, record: Record) -> float:
        """Route ``record`` to ``key``'s estimator; return its new estimate.

        A NaN or infinite record raises :class:`StreamError` before any
        key is created or counted.
        """
        ensure_finite(record)
        estimator = self._estimator_for(key)
        self._updates[key] += 1
        return estimator.update(record)

    def estimate(self, key: Hashable) -> float:
        """Current estimate for ``key``."""
        estimator = self._estimators.get(key)
        if estimator is None:
            raise StreamError(f"unknown key {key!r}")
        return estimator.estimate()  # type: ignore[attr-defined]

    def estimates(self) -> dict[Hashable, float]:
        """Current estimate for every live key."""
        return {key: est.estimate() for key, est in self._estimators.items()}  # type: ignore[attr-defined]

    def top(self, n: int = 10) -> list[tuple[Hashable, float]]:
        """The ``n`` keys with the largest current estimates.

        The fraud/monitoring pattern: rank customers or interfaces by their
        correlated aggregate and inspect the head.  NaN estimates (an
        extrema estimator whose focus emptied, say) rank last, in
        first-seen order; fewer than ``n`` live keys returns them all.
        The head is heap-selected by :func:`rank_estimates`.
        """
        if n <= 0:
            raise ConfigurationError(f"n must be positive, got {n}")
        points = (
            (key, est.estimate())  # type: ignore[attr-defined]
            for key, est in self._estimators.items()
        )
        return rank_estimates(points, n)

    def evict(self, key: Hashable) -> bool:
        """Drop ``key``'s estimator; returns False if the key was unknown.

        Emits a ``keyed.evict`` event carrying the key and its lifetime
        update count, so dropped state is as auditable as every other
        lifecycle transition.
        """
        estimator = self._estimators.pop(key, None)
        if estimator is None:
            return False
        updates = self._updates.pop(key, 0)
        if self._obs.enabled:
            self._obs.emit("keyed.evict", key=str(key), updates=float(updates))
        return True

    def _memory_bytes(self) -> float:
        """Estimated bank footprint: a pickled sample, extrapolated.

        Pickling every estimator per scrape would be O(keys); sampling the
        first :data:`_MEMORY_SAMPLE` (constant, deterministic) and scaling
        by the live-key count keeps the gauge cheap and honest enough for
        capacity planning.
        """
        if not self._estimators:
            return 0.0
        sample = []
        for estimator in self._estimators.values():
            sample.append(len(pickle.dumps(estimator, pickle.HIGHEST_PROTOCOL)))
            if len(sample) >= _MEMORY_SAMPLE:
                break
        return sum(sample) / len(sample) * len(self._estimators)

    def obs_state(self) -> dict[str, float]:
        """Aggregate bank gauges; per-key detail is opt-in and capped.

        Defaults report ``keys``, ``updates``, the summed child gauges
        (``total.<gauge>``) and an estimated ``memory_bytes`` — bounded
        cardinality however many keys are live.  With ``obs_key_detail=K``
        the top-K keys (by current estimate, NaN-safe) additionally
        report ``key.<name>.<gauge>`` entries, with key names escaped
        (``.`` → ``\\.``) and disambiguated (``#2`` suffixes) so distinct
        keys never collide on one gauge.
        """
        gauges: dict[str, float] = {
            "keys": float(len(self._estimators)),
            "updates": float(sum(self._updates.values())),
        }
        totals: dict[str, float] = {}
        for estimator in self._estimators.values():
            state_fn = getattr(estimator, "obs_state", None)
            if state_fn is not None:
                for name, value in state_fn().items():
                    totals[name] = totals.get(name, 0.0) + value
        for name, value in totals.items():
            gauges[f"total.{name}"] = value
        gauges["memory_bytes"] = self._memory_bytes()
        if self._obs_key_detail:
            names = key_gauge_names(self._estimators)
            for key, estimate in self.top(self._obs_key_detail):
                prefix = f"key.{names[key]}"
                gauges[f"{prefix}.estimate"] = estimate
                gauges[f"{prefix}.updates"] = float(self._updates.get(key, 0))
                state_fn = getattr(self._estimators[key], "obs_state", None)
                if state_fn is not None:
                    for name, value in state_fn().items():
                        gauges[f"{prefix}.{name}"] = value
        return gauges
