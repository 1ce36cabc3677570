"""The batched from-window reseed against the record-at-a-time loop.

A periodic or regime rebuild re-routes the whole live window.  Under the
uniform policy that happens as columns (one ``searchsorted`` to an
account index, one account scatter over tails and fine buckets); these
tests run each sliding estimator next to a twin whose reseed is the old
scalar loop and require every answer and every piece of summary state to
match bit for bit.  The quantile policy's merge/split swap fires mid-reseed, so it must
keep the scalar loop.
"""

from __future__ import annotations

import random

import pytest

from repro.core.query import CorrelatedQuery
from repro.core.sliding_avg import SlidingAvgEstimator
from repro.core.sliding_extrema import SlidingExtremaEstimator
from repro.streams.model import Record


def _scalar_reseed(estimator) -> None:
    for cell in estimator._ring:
        cell[1] = estimator._route_add(cell[0])


class ScalarReseedAvg(SlidingAvgEstimator):
    _reseed_from_window = _scalar_reseed


class ScalarReseedExtrema(SlidingExtremaEstimator):
    _reseed_from_window = _scalar_reseed


def _stream(n: int, seed: int) -> list[Record]:
    """A drifting, jumpy stream with weights spread over many magnitudes,
    so any change in summation order would show in the last bits."""
    rng = random.Random(seed)
    records = []
    level = 500.0
    for i in range(n):
        if i % 170 == 0:
            level = rng.choice([50.0, 500.0, 5000.0])
        x = level * (1.0 + 0.3 * rng.random()) + rng.random()
        y = rng.choice([1.0, -0.0, 0.1, 3e7]) * rng.random() + rng.choice([0.0, 1e-9])
        records.append(Record(x, y))
    return records


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def _fingerprint(estimator) -> dict:
    inner = estimator.histogram
    state = {
        "edges": _bits(inner.edges),
        "counts": _bits(inner.counts),
        "weights": _bits(inner.weights),
        "sides": [cell[1] for cell in estimator._ring],
        "ssr": estimator._steps_since_rebuild,
        "swaps": estimator._adds_since_swap,
    }
    for name in ("_left_tail", "_right_tail", "_tail"):
        tail = getattr(estimator, name, None)
        if tail is not None:
            state[name] = _bits(tail)
    return state


CASES = [
    (SlidingAvgEstimator, ScalarReseedAvg, CorrelatedQuery("count", "avg", window=120), {}),
    (SlidingAvgEstimator, ScalarReseedAvg, CorrelatedQuery("sum", "avg", window=97), {}),
    (
        SlidingExtremaEstimator,
        ScalarReseedExtrema,
        CorrelatedQuery("sum", "min", epsilon=1.0, window=120),
        {"rebuild_period": 25},
    ),
    (
        SlidingExtremaEstimator,
        ScalarReseedExtrema,
        CorrelatedQuery("count", "max", epsilon=0.5, window=80),
        {"rebuild_period": 13},
    ),
]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("batched_cls, scalar_cls, query, options", CASES)
def test_batched_reseed_matches_the_scalar_loop(batched_cls, scalar_cls, query, options, seed):
    batched = batched_cls(query, num_buckets=8, policy="uniform", **options)
    scalar = scalar_cls(query, num_buckets=8, policy="uniform", **options)
    rebuilds = 0
    for record in _stream(900, seed):
        assert float(batched.update(record)).hex() == float(scalar.update(record)).hex()
        if batched.histogram is not None:
            rebuilds += batched._steps_since_rebuild == 0
            assert _fingerprint(batched) == _fingerprint(scalar)
    assert rebuilds >= 10  # the stream really exercised the reseed
    if query.dependent != "avg":
        assert batched.estimate_bounds() == scalar.estimate_bounds()


def test_forced_rebuild_leaves_identical_state():
    query = CorrelatedQuery("sum", "avg", window=150)
    batched = SlidingAvgEstimator(query, num_buckets=10, rebuild_period=0)
    scalar = ScalarReseedAvg(query, num_buckets=10, rebuild_period=0)
    for record in _stream(400, 3):
        batched.update(record)
        scalar.update(record)
    live = sorted(cell[0].x for cell in batched._ring)
    lo, hi = live[40], live[100]  # a region with live tuples on all three sides
    batched._rebuild_from_window(lo, hi, reason="periodic")
    scalar._rebuild_from_window(lo, hi, reason="periodic")
    assert _fingerprint(batched) == _fingerprint(scalar)
    assert {cell[1] for cell in batched._ring} == {"L", "I", "R"}


@pytest.mark.parametrize(
    "cls, query, options",
    [
        (SlidingAvgEstimator, CorrelatedQuery("count", "avg", window=120), {}),
        (
            SlidingExtremaEstimator,
            CorrelatedQuery("count", "min", epsilon=1.0, window=120),
            {"rebuild_period": 25},
        ),
    ],
)
def test_only_the_quantile_policy_keeps_the_scalar_loop(cls, query, options, monkeypatch):
    calls = {"columns": 0}
    original = cls._route_columns

    def counting(self, xs, ys):
        calls["columns"] += 1
        return original(self, xs, ys)

    monkeypatch.setattr(cls, "_route_columns", counting)
    stream = _stream(600, 4)
    quantile = cls(query, num_buckets=8, policy="quantile", **options)
    for record in stream:
        quantile.update(record)
    assert calls["columns"] == 0
    uniform = cls(query, num_buckets=8, policy="uniform", **options)
    for record in stream:
        uniform.update(record)
    assert calls["columns"] > 0
