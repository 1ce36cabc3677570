"""Tests for the per-key estimator bank."""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exact import exact_series
from repro.core.keyed import (
    ONLINE_METHODS,
    KeyedEstimatorBank,
    escape_key_name,
    key_gauge_names,
    rank_estimates,
)
from repro.core.query import CorrelatedQuery
from repro.exceptions import ConfigurationError, StreamError
from repro.obs.sink import RecordingSink
from repro.streams.model import Record
from tests.conftest import make_records, rank_estimates_sorted, same_ranking

QUERY = CorrelatedQuery("count", "min", epsilon=9.0)

NAN = float("nan")


class _NanEstimator:
    """Stand-in whose estimate is NaN (focused estimators reject non-finite
    records at ingestion, so a NaN answer must be injected directly — e.g.
    an extrema estimator whose focus region emptied)."""

    def estimate(self) -> float:
        return NAN

    def obs_state(self) -> dict[str, float]:
        return {"buckets": 1.0}


class TestValidation:
    def test_offline_methods_rejected(self):
        for method in ("equidepth", "exact"):
            with pytest.raises(ConfigurationError):
                KeyedEstimatorBank(QUERY, method=method)

    def test_equiwidth_needs_domain(self):
        with pytest.raises(ConfigurationError):
            KeyedEstimatorBank(QUERY, method="equiwidth")
        bank = KeyedEstimatorBank(QUERY, method="equiwidth", domain=(0.0, 100.0))
        bank.update("a", Record(5.0))
        assert "a" in bank

    def test_max_keys_positive(self):
        with pytest.raises(ConfigurationError):
            KeyedEstimatorBank(QUERY, max_keys=0)

    def test_online_methods_all_buildable(self):
        for method in ONLINE_METHODS:
            query = QUERY if "running" not in method else CorrelatedQuery("count", "avg")
            bank = KeyedEstimatorBank(query, method=method)
            bank.update("k", Record(5.0))


class TestRouting:
    def test_keys_are_independent(self, rng):
        bank = KeyedEstimatorBank(QUERY)
        a_records = make_records(rng.uniform(1.0, 10.0, size=200))
        b_records = make_records(rng.uniform(100.0, 1000.0, size=200))
        for ra, rb in zip(a_records, b_records):
            bank.update("a", ra)
            bank.update("b", rb)
        exact_a = exact_series(a_records, QUERY)[-1]
        exact_b = exact_series(b_records, QUERY)[-1]
        assert bank.estimate("a") == pytest.approx(exact_a, rel=0.1)
        assert bank.estimate("b") == pytest.approx(exact_b, rel=0.1)

    def test_lazy_creation_and_len(self):
        bank = KeyedEstimatorBank(QUERY)
        assert len(bank) == 0
        bank.update("x", Record(1.0))
        bank.update("y", Record(2.0))
        bank.update("x", Record(3.0))
        assert len(bank) == 2
        assert list(bank.keys()) == ["x", "y"]

    def test_unknown_key_estimate_raises(self):
        bank = KeyedEstimatorBank(QUERY)
        with pytest.raises(StreamError):
            bank.estimate("nope")

    def test_estimates_snapshot(self):
        bank = KeyedEstimatorBank(QUERY)
        bank.update("x", Record(1.0))
        bank.update("y", Record(2.0))
        snapshot = bank.estimates()
        assert set(snapshot) == {"x", "y"}
        assert all(v >= 0.0 for v in snapshot.values())


class TestNonFiniteRecords:
    """A NaN/inf record is refused before the bank creates or counts a key."""

    @pytest.mark.parametrize(
        "record", [Record(1.0, math.inf), Record(math.nan, 1.0)], ids=["y-inf", "x-nan"]
    )
    def test_new_key_is_not_created(self, record):
        bank = KeyedEstimatorBank(QUERY)
        bank.update("a", Record(1.0))
        with pytest.raises(StreamError, match="non-finite"):
            bank.update("b", record)
        assert "b" not in bank and len(bank) == 1
        assert bank.obs_state()["updates"] == 1.0

    def test_existing_key_counters_unchanged(self):
        bank = KeyedEstimatorBank(QUERY)
        for x in (1.0, 2.0, 3.0):
            bank.update("a", Record(x))
        before = pickle.dumps(bank)
        with pytest.raises(StreamError, match="non-finite"):
            bank.update("a", Record(2.0, math.nan))
        assert pickle.dumps(bank) == before
        assert bank.obs_state()["updates"] == 3.0


class TestCapacityManagement:
    def test_max_keys_enforced(self):
        bank = KeyedEstimatorBank(QUERY, max_keys=2)
        bank.update("a", Record(1.0))
        bank.update("b", Record(1.0))
        with pytest.raises(StreamError):
            bank.update("c", Record(1.0))
        bank.update("a", Record(2.0))  # existing keys keep working

    def test_evict_frees_capacity(self):
        bank = KeyedEstimatorBank(QUERY, max_keys=1)
        bank.update("a", Record(1.0))
        assert bank.evict("a")
        assert not bank.evict("a")  # already gone
        bank.update("b", Record(1.0))
        assert "b" in bank and "a" not in bank


class TestTop:
    def test_top_ranks_by_estimate(self, rng):
        query = CorrelatedQuery("count", "avg")
        bank = KeyedEstimatorBank(query, method="heuristic-running")
        # Key "hot" gets many above-average values, "cold" few.
        for i in range(300):
            bank.update("hot", Record(float(i % 7 + 1)))
        for i in range(30):
            bank.update("cold", Record(float(i % 7 + 1)))
        ranked = bank.top(2)
        assert ranked[0][0] == "hot"
        assert ranked[0][1] >= ranked[1][1]

    def test_top_n_validation(self):
        bank = KeyedEstimatorBank(QUERY)
        with pytest.raises(ConfigurationError):
            bank.top(0)

    def test_top_beyond_live_keys_returns_them_all(self):
        bank = KeyedEstimatorBank(QUERY)
        bank.update("a", Record(1.0))
        bank.update("b", Record(2.0))
        ranked = bank.top(10)
        assert len(ranked) == 2
        assert {key for key, _ in ranked} == {"a", "b"}

    def test_nan_estimates_rank_last_deterministically(self):
        # Regression: sorted(..., reverse=True) over raw floats lets a NaN
        # land anywhere (all comparisons are False), poisoning the whole
        # ranking.  NaNs must sort last, in first-seen order, every time.
        bank = KeyedEstimatorBank(QUERY)
        for key, x in (("a", 5.0), ("b", 50.0), ("c", 2.0)):
            for _ in range(5):
                bank.update(key, Record(x))
        bank._estimators["poison"] = _NanEstimator()
        bank._updates["poison"] = 0
        bank._estimators["poison2"] = _NanEstimator()
        bank._updates["poison2"] = 0
        for _ in range(5):
            ranked = bank.top(10)
            assert [key for key, _ in ranked[-2:]] == ["poison", "poison2"]
            finite = [value for _, value in ranked[:-2]]
            assert finite == sorted(finite, reverse=True)
            assert all(math.isnan(value) for _, value in ranked[-2:])


    def test_top_matches_sort_based_reference(self, rng):
        bank = KeyedEstimatorBank(QUERY)
        for i, x in enumerate(rng.integers(1, 6, size=120)):
            bank.update(f"k{i % 9}", Record(float(x)))
        bank._estimators["poison"] = _NanEstimator()
        bank._updates["poison"] = 0
        for n in (1, 3, len(bank), len(bank) + 5):
            want = rank_estimates_sorted(bank.estimates().items(), n)
            assert same_ranking(bank.top(n), want)


class TestRankEstimates:
    def test_nans_last_in_first_seen_order(self):
        items = [("a", NAN), ("b", 3.0), ("c", NAN), ("d", 7.0)]
        assert [key for key, _ in rank_estimates(items)] == ["d", "b", "a", "c"]

    def test_ties_keep_first_seen_order(self):
        items = [("x", 1.0), ("y", 1.0), ("z", 2.0)]
        assert [key for key, _ in rank_estimates(items)] == ["z", "x", "y"]

    def test_n_truncates(self):
        items = [("a", 1.0), ("b", 2.0), ("c", 3.0)]
        assert rank_estimates(items, 2) == [("c", 3.0), ("b", 2.0)]

    def test_nan_order_under_every_n(self):
        items = [("a", NAN), ("b", 3.0), ("c", NAN), ("d", 7.0)]
        expected = {1: ["d"], 2: ["d", "b"], 3: ["d", "b", "a"], 9: ["d", "b", "a", "c"]}
        for n, keys in expected.items():
            assert [key for key, _ in rank_estimates(items, n)] == keys

    def test_consumes_a_generator(self):
        items = (pair for pair in [("a", 1.0), ("b", 2.0)])
        assert rank_estimates(items, 1) == [("b", 2.0)]

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.sampled_from([NAN, -1.0, 0.0, 1.0, 2.5, math.inf]), max_size=30),
        n=st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
    )
    def test_matches_sort_based_reference(self, values, n):
        # Few distinct values: ties and NaNs in every other draw.
        items = [(f"k{i}", value) for i, value in enumerate(values)]
        assert same_ranking(rank_estimates(items, n), rank_estimates_sorted(items, n))


class TestGaugeNaming:
    def test_dots_and_backslashes_escaped(self):
        assert escape_key_name("a.b") == "a\\.b"
        assert escape_key_name("a\\.b") == "a\\\\\\.b"
        # Distinct keys never alias after escaping.
        assert escape_key_name("a.b") != escape_key_name("a\\b")

    def test_colliding_renderings_disambiguated(self):
        names = key_gauge_names([1, "1", 2])
        assert names[1] == "1"
        assert names["1"] == "1#2"
        assert names[2] == "2"
        assert len(set(names.values())) == 3


class TestEvictEvent:
    def test_evict_emits_event_with_lifetime_updates(self):
        sink = RecordingSink()
        bank = KeyedEstimatorBank(QUERY, sink=sink)
        for _ in range(7):
            bank.update("gone", Record(1.0))
        assert bank.evict("gone")
        events = sink.events_named("keyed.evict")
        assert len(events) == 1
        assert events[0].fields == {"key": "gone", "updates": 7.0}

    def test_unknown_evict_emits_nothing(self):
        sink = RecordingSink()
        bank = KeyedEstimatorBank(QUERY, sink=sink)
        assert not bank.evict("never")
        assert sink.count("keyed.evict") == 0.0


class TestObsState:
    def test_default_cardinality_is_key_count_independent(self):
        # Regression: obs_state() used to mint gauges per live key, so a
        # scrape's size scaled with the key population.
        small = KeyedEstimatorBank(QUERY)
        big = KeyedEstimatorBank(QUERY)
        small.update("k0", Record(1.0))
        for i in range(60):
            big.update(f"k{i}", Record(float(i + 1)))
        assert len(big.obs_state()) == len(small.obs_state())
        assert not any(name.startswith("key.") for name in big.obs_state())

    def test_aggregates_report_totals(self):
        bank = KeyedEstimatorBank(QUERY)
        for i in range(10):
            bank.update(f"k{i % 3}", Record(float(i + 1)))
        state = bank.obs_state()
        assert state["keys"] == 3.0
        assert state["updates"] == 10.0
        assert state["memory_bytes"] > 0.0
        assert any(name.startswith("total.") for name in state)

    def test_key_detail_opt_in_capped_and_escaped(self):
        bank = KeyedEstimatorBank(QUERY, obs_key_detail=2)
        for key in ("dotted.key", "plain", "third"):
            for _ in range(3):
                bank.update(key, Record(5.0))
        state = bank.obs_state()
        detailed = {name for name in state if name.startswith("key.")}
        prefixes = {name.rsplit(".", 1)[0] for name in detailed}
        assert len(prefixes) == 2  # capped at top-K, not all live keys
        assert any("dotted\\.key" in name for name in detailed) or not any(
            "dotted" in name for name in detailed
        )

    def test_colliding_keys_get_distinct_gauges(self):
        bank = KeyedEstimatorBank(QUERY, obs_key_detail=5)
        bank.update(1, Record(5.0))
        bank.update("1", Record(50.0))
        state = bank.obs_state()
        estimates = [name for name in state if name.endswith(".estimate")]
        assert len(estimates) == 2  # "1" and "1#2", never one overwriting

