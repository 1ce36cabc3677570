"""Tests for the landmark extrema estimator (paper Section 3.1.2)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exact import exact_series
from repro.core.landmark_extrema import LandmarkExtremaEstimator
from repro.core.query import CorrelatedQuery
from repro.exceptions import ConfigurationError, StreamError
from repro.streams.model import Record
from tests.conftest import make_records

MIN_Q = CorrelatedQuery("count", "min", epsilon=1.0)
MAX_Q = CorrelatedQuery("count", "max", epsilon=1.0)


class TestValidation:
    def test_requires_extrema_query(self):
        with pytest.raises(ConfigurationError):
            LandmarkExtremaEstimator(CorrelatedQuery("count", "avg"))

    def test_rejects_sliding(self):
        with pytest.raises(ConfigurationError):
            LandmarkExtremaEstimator(
                CorrelatedQuery("count", "min", epsilon=1.0, window=10)
            )

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            LandmarkExtremaEstimator(MIN_Q, num_buckets=1)
        with pytest.raises(ConfigurationError):
            LandmarkExtremaEstimator(MIN_Q, strategy="hybrid")
        with pytest.raises(ConfigurationError):
            LandmarkExtremaEstimator(MIN_Q, policy="magic")
        with pytest.raises(ConfigurationError):
            LandmarkExtremaEstimator(MIN_Q, swap_period=0)

    def test_accessors_before_data_raise(self):
        est = LandmarkExtremaEstimator(MIN_Q)
        with pytest.raises(StreamError):
            est.extremum
        with pytest.raises(StreamError):
            est.region

    def test_negative_values_rejected(self):
        est = LandmarkExtremaEstimator(MIN_Q)
        with pytest.raises(StreamError):
            est.update(Record(-1.0))


def _update_scalar(est, record):
    est.update(record)


def _update_columns(est, record):
    est.update_columns([record.x], [record.y], collect="none")


def _update_many(est, record):
    est.update_many([record], collect="none")


REFUSAL_ENTRIES = [_update_scalar, _update_columns, _update_many]


class TestRefusedRecordDuringWarmup:
    """A refused record leaves the warm-up state exactly as it found it."""

    @pytest.mark.parametrize("entry", REFUSAL_ENTRIES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("query", [MIN_Q, MAX_Q], ids=["min", "max"])
    def test_refused_first_tuple(self, entry, query):
        est = LandmarkExtremaEstimator(query, num_buckets=10)
        before = pickle.dumps(est)
        with pytest.raises(StreamError, match="non-negative"):
            entry(est, Record(-4.0))
        assert pickle.dumps(est) == before
        entry(est, Record(3.0, 2.0))
        fresh = LandmarkExtremaEstimator(query, num_buckets=10)
        fresh.update(Record(3.0, 2.0))
        assert pickle.dumps(est) == pickle.dumps(fresh)
        assert est.extremum == 3.0

    @pytest.mark.parametrize("entry", REFUSAL_ENTRIES, ids=lambda f: f.__name__)
    def test_refused_mid_warmup_keeps_min_tracking(self, entry):
        prefix = make_records([5.0, 8.0, 6.0])
        est = LandmarkExtremaEstimator(MIN_Q, num_buckets=10)
        for r in prefix:
            est.update(r)
        before = pickle.dumps(est)
        with pytest.raises(StreamError, match="non-negative"):
            entry(est, Record(-1.0))
        assert pickle.dumps(est) == before
        # A real new minimum must still shift the region.
        entry(est, Record(3.0))
        assert est.extremum == 3.0
        assert est.region == (3.0, 6.0)
        fresh = LandmarkExtremaEstimator(MIN_Q, num_buckets=10)
        for r in prefix + [Record(3.0)]:
            fresh.update(r)
        assert pickle.dumps(est) == pickle.dumps(fresh)

    def test_refused_inside_a_columnar_chunk_keeps_partial_state(self):
        xs = [5.0, 8.0, 6.0, 7.0, -1.0, 3.0]
        est = LandmarkExtremaEstimator(MIN_Q, num_buckets=10)
        with pytest.raises(StreamError, match="non-negative"):
            est.update_columns(xs, collect="none")
        scalar = LandmarkExtremaEstimator(MIN_Q, num_buckets=10)
        for x in xs[:4]:
            scalar.update(Record(x))
        assert pickle.dumps(est) == pickle.dumps(scalar)
        est.update_columns(xs[5:], collect="none")
        scalar.update(Record(xs[5]))
        assert pickle.dumps(est) == pickle.dumps(scalar)
        assert est.extremum == 3.0


class TestWarmup:
    def test_exact_during_warmup(self):
        est = LandmarkExtremaEstimator(MIN_Q, num_buckets=10)
        q = MIN_Q
        records = make_records([10.0, 15.0, 30.0, 12.0])
        exact = exact_series(records, q)
        outputs = [est.update(r) for r in records]
        assert outputs == exact

    def test_histogram_built_after_m_in_region_tuples(self):
        est = LandmarkExtremaEstimator(MIN_Q, num_buckets=3)
        for x in [10.0, 11.0]:
            est.update(Record(x))
        assert est.histogram is None
        est.update(Record(12.0))
        assert est.histogram is not None
        assert est.histogram.num_buckets == 3

    def test_out_of_region_tuples_purged_during_warmup(self):
        est = LandmarkExtremaEstimator(MIN_Q, num_buckets=3)
        # eps=1: region of 10 is [10, 20]; 50 is outside and never counts.
        outputs = [est.update(Record(x)) for x in [10.0, 50.0, 11.0, 12.0]]
        assert outputs == [1.0, 1.0, 2.0, 3.0]


class TestRegionDynamics:
    def test_region_tracks_minimum(self):
        est = LandmarkExtremaEstimator(MIN_Q, num_buckets=2)
        for x in [10.0, 11.0, 4.0]:
            est.update(Record(x))
        assert est.extremum == 4.0
        assert est.region == (4.0, 8.0)

    def test_condition1_reinitialises(self):
        est = LandmarkExtremaEstimator(MIN_Q, num_buckets=2)
        for x in [10.0, 11.0]:
            est.update(Record(x))
        # New min 2: region [2,4] is disjoint from [10,20] -> reinit.
        out = est.update(Record(2.0))
        assert out == 1.0  # only the new minimum qualifies
        assert est.region == (2.0, 4.0)

    def test_condition2_truncates(self):
        est = LandmarkExtremaEstimator(MIN_Q, num_buckets=4)
        for x in [10.0, 12.0, 14.0, 16.0]:
            est.update(Record(x))
        # New min 9: region [9,18]; old tuples <= 18 all survive.
        out = est.update(Record(9.0))
        assert out == pytest.approx(5.0, abs=0.75)

    def test_values_above_region_discarded(self):
        est = LandmarkExtremaEstimator(MIN_Q, num_buckets=2)
        for x in [10.0, 11.0]:
            est.update(Record(x))
        out = est.update(Record(100.0))
        assert out == 2.0  # 100 can never qualify (min only falls)

    def test_max_mode_mirrors(self):
        est = LandmarkExtremaEstimator(MAX_Q, num_buckets=2)
        for x in [10.0, 11.0]:
            est.update(Record(x))
        assert est.extremum == 11.0
        lo, hi = est.region
        assert lo == pytest.approx(5.5) and hi == 11.0
        # New max 100: region [50, 100] disjoint -> reinit.
        assert est.update(Record(100.0)) == 1.0

    def test_monotone_region_boundary(self):
        est = LandmarkExtremaEstimator(MIN_Q, num_buckets=4)
        highs = []
        for x in [20.0, 18.0, 9.0, 13.0, 7.0, 30.0]:
            est.update(Record(x))
            highs.append(est.region[1])
        assert all(b <= a + 1e-12 for a, b in zip(highs, highs[1:]))


class TestAccuracy:
    @pytest.mark.parametrize("strategy", ["wholesale", "piecemeal"])
    @pytest.mark.parametrize("policy", ["uniform", "quantile"])
    def test_close_to_exact_on_random_stream(self, rng, strategy, policy):
        xs = rng.lognormal(mean=3.0, sigma=1.0, size=2000)
        records = make_records(xs)
        q = CorrelatedQuery("count", "min", epsilon=99.0)
        est = LandmarkExtremaEstimator(q, num_buckets=10, strategy=strategy, policy=policy)
        outputs = np.array([est.update(r) for r in records])
        exact = np.array(exact_series(records, q))
        rmse = float(np.sqrt(np.mean((outputs - exact) ** 2)))
        assert rmse < 0.05 * exact[-1]

    def test_sum_dependent(self, rng):
        xs = rng.uniform(1.0, 100.0, size=500)
        ys = rng.uniform(0.0, 10.0, size=500)
        records = make_records(xs, ys)
        q = CorrelatedQuery("sum", "min", epsilon=9.0)
        est = LandmarkExtremaEstimator(q, num_buckets=10)
        outputs = np.array([est.update(r) for r in records])
        exact = np.array(exact_series(records, q))
        assert outputs[-1] == pytest.approx(exact[-1], rel=0.1)

    def test_estimate_never_negative(self, rng):
        xs = rng.uniform(1.0, 100.0, size=300)
        q = CorrelatedQuery("count", "min", epsilon=0.2)
        est = LandmarkExtremaEstimator(q, num_buckets=5)
        for r in make_records(xs):
            assert est.update(r) >= 0.0

    @given(
        xs=st.lists(st.floats(0.5, 500.0), min_size=1, max_size=80),
        strategy=st.sampled_from(["wholesale", "piecemeal"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_crashes_and_tracks_total(self, xs, strategy):
        q = CorrelatedQuery("count", "min", epsilon=2.0)
        est = LandmarkExtremaEstimator(q, num_buckets=4, strategy=strategy)
        for r in make_records(xs):
            out = est.update(r)
            assert out >= 0.0
            assert out <= len(xs) + 1e-6
