"""Tests for the heavy-hitter-gated keyed bank."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import CheckpointManager
from repro.core.engine import build_estimator
from repro.core.query import CorrelatedQuery
from repro.exceptions import ConfigurationError, StreamError
from repro.keyed import GatedKeyedBank
from repro.obs.sink import RecordingSink
from repro.streams.model import Record
from tests.conftest import rank_estimates_sorted, same_ranking

QUERY = CorrelatedQuery("count", "min", epsilon=9.0)
DEPENDENTS = ("count", "sum", "avg")
NAN = float("nan")


def _records(rng, n, low=1.0, high=100.0):
    xs = rng.uniform(low, high, size=n)
    ys = rng.uniform(0.5, 2.0, size=n)
    return [Record(float(x), float(y)) for x, y in zip(xs, ys)]


class TestValidation:
    def test_offline_method_rejected(self):
        with pytest.raises(ConfigurationError):
            GatedKeyedBank(QUERY, method="equidepth")

    def test_unknown_option_fails_at_construction(self):
        # Eager probe build: the engine's did-you-mean fires here, not at
        # first promotion thousands of tuples into the stream.
        with pytest.raises(ConfigurationError, match="k_std"):
            GatedKeyedBank(QUERY, kstd=2.0)

    def test_promote_threshold_positive(self):
        with pytest.raises(ConfigurationError):
            GatedKeyedBank(QUERY, promote_threshold=0)

    def test_memory_budget_positive(self):
        with pytest.raises(ConfigurationError):
            GatedKeyedBank(QUERY, memory_budget=0)

    def test_obs_key_detail_non_negative(self):
        with pytest.raises(ConfigurationError):
            GatedKeyedBank(QUERY, obs_key_detail=-1)

    def test_top_n_positive(self):
        with pytest.raises(ConfigurationError):
            GatedKeyedBank(QUERY).top(0)


class TestPromotion:
    def test_hot_key_promoted_cold_keys_stay_in_sketch(self, rng):
        bank = GatedKeyedBank(QUERY, promote_threshold=16, sketch_capacity=64)
        for record in _records(rng, 100):
            bank.update("hot", record)
        for i, record in enumerate(_records(rng, 30)):
            bank.update(f"cold-{i % 10}", record)
        assert bank.is_promoted("hot")
        assert not any(bank.is_promoted(f"cold-{i}") for i in range(10))
        assert bank.estimate_interval("hot").kind == "promoted"
        assert bank.estimate_interval("cold-0").kind == "sketch"

    def test_exact_promotion_matches_standalone_bit_for_bit(self, rng):
        # Error-free promotion replays the full history: the promoted
        # estimator must be float-for-float the standalone one.
        bank = GatedKeyedBank(
            QUERY, promote_threshold=16, sketch_capacity=64, num_buckets=10
        )
        solo = build_estimator(QUERY, "piecemeal-uniform", num_buckets=10)
        records = _records(rng, 120)
        for record in records:
            bank.update("k", record)
            solo.update(record)
        answer = bank.estimate_interval("k")
        assert answer.exact_history
        assert answer.value == solo.estimate()
        assert answer.low == answer.high == answer.value

    @settings(max_examples=25, deadline=None)
    @given(
        xs=st.lists(
            st.floats(min_value=0.5, max_value=500.0, allow_nan=False),
            min_size=40,
            max_size=120,
        ),
        threshold=st.integers(min_value=4, max_value=32),
    )
    def test_bit_parity_property(self, xs, threshold):
        bank = GatedKeyedBank(QUERY, promote_threshold=threshold)
        solo = build_estimator(QUERY, "piecemeal-uniform", num_buckets=10)
        for i, x in enumerate(xs):
            record = Record(x, float(i % 3 + 1))
            bank.update("only", record)
            solo.update(record)
        answer = bank.estimate_interval("only")
        assert answer.exact_history  # single key: never displaced
        assert answer.value == solo.estimate()

    def test_promote_event_emitted(self, rng):
        sink = RecordingSink()
        bank = GatedKeyedBank(QUERY, promote_threshold=8, sink=sink)
        for record in _records(rng, 20):
            bank.update("k", record)
        events = sink.events_named("keyed.promote")
        assert len(events) == 1
        assert events[0].fields["key"] == "k"
        assert events[0].fields["exact"] == 1.0
        assert events[0].fields["missed"] == 0.0

    def test_update_accepts_tuples(self):
        bank = GatedKeyedBank(QUERY)
        value = bank.update("k", (5.0, 2.0))
        assert value >= 0.0


class TestTailAnswers:
    def test_tail_interval_contains_truth(self, rng):
        bank = GatedKeyedBank(QUERY, promote_threshold=64, sketch_capacity=8)
        truth: dict[str, int] = {}
        for i, record in enumerate(_records(rng, 400)):
            key = f"k{i % 40}"
            truth[key] = truth.get(key, 0) + 1
            bank.update(key, record)
        for key, hits in truth.items():
            answer = bank.estimate_interval(key)
            # COUNT-dependent: the aggregate counts a subset of the key's
            # records, so it lies within [0, upper bound on records].
            assert answer.low == 0.0
            assert answer.high >= 0.0
            assert answer.value == answer.high
            if answer.kind == "sketch":
                low, high = bank._admission.hit_bounds(key)
                assert low <= hits <= high

    def test_untracked_key_answers_ceiling_box(self):
        bank = GatedKeyedBank(QUERY)
        answer = bank.estimate_interval("never-seen")
        assert answer.kind == "tail"
        assert answer.low == answer.high == answer.value == 0.0

    def test_sum_tail_bounds_nonnegative_y(self, rng):
        query = CorrelatedQuery("sum", "min", epsilon=9.0)
        bank = GatedKeyedBank(query, promote_threshold=64, sketch_capacity=4)
        for i, record in enumerate(_records(rng, 200)):
            bank.update(f"k{i % 20}", record)
        answer = bank.estimate_interval("k3")
        assert answer.low == 0.0  # all y >= 0 so the sum cannot be negative
        assert answer.high >= 0.0

    def test_avg_tail_bounds_are_y_range(self, rng):
        query = CorrelatedQuery("avg", "avg")
        bank = GatedKeyedBank(
            query, method="heuristic-running", promote_threshold=64,
            sketch_capacity=4,
        )
        for i, record in enumerate(_records(rng, 200)):
            bank.update(f"k{i % 20}", record)
        answer = bank.estimate_interval("k3")
        assert answer.low <= 2.0 and answer.high <= 2.0  # y drawn in [0.5, 2]

    def test_top_merges_promoted_and_tail(self, rng):
        bank = GatedKeyedBank(QUERY, promote_threshold=16, sketch_capacity=32)
        for record in _records(rng, 100):
            bank.update("hot", record)
        for i, record in enumerate(_records(rng, 30)):
            bank.update(f"cold-{i % 10}", record)
        ranked = bank.top(5)
        assert ranked[0][0] == "hot"
        assert len(ranked) == 5
        # n beyond the tracked population returns them all, no padding.
        assert len(bank.top(500)) == len(bank)


class TestTailPoints:
    """The point a tail key answers is the top of its interval, everywhere."""

    @pytest.mark.parametrize("dependent", DEPENDENTS)
    def test_update_returns_the_interval_top(self, dependent, rng):
        bank = GatedKeyedBank(
            CorrelatedQuery(dependent, "min", epsilon=9.0),
            promote_threshold=16,
            sketch_capacity=8,
        )
        admission = bank._admission
        y_max = 0.0
        for i, record in enumerate(_records(rng, 400)):
            key = f"k{int(rng.integers(0, 30))}" if i % 3 else "hot"
            y_max = max(y_max, record.y)
            value = bank.update(key, record)
            if bank.is_promoted(key):
                continue
            answer = bank.estimate_interval(key)
            assert answer.kind == "sketch"
            assert value == answer.value == answer.high
            # Independent of the bank: straight from the sketch's counters.
            if dependent == "count":
                assert value == float(admission.hit_bounds(key)[1])
            elif dependent == "sum":
                assert value == admission.mass_bound(key)
            else:
                assert value == y_max
        assert bank.is_promoted("hot") and admission.ceiling > 0

    @pytest.mark.parametrize("dependent", DEPENDENTS)
    def test_untracked_key_answers_the_ceiling_form(self, dependent, rng):
        bank = GatedKeyedBank(
            CorrelatedQuery(dependent, "min", epsilon=9.0),
            promote_threshold=64,
            sketch_capacity=4,
        )
        records = _records(rng, 200)
        for i, record in enumerate(records):
            bank.update(f"k{i % 20}", record)
        admission = bank._admission
        assert admission.ceiling > 0
        answer = bank.estimate_interval("never-seen")
        assert answer.kind == "tail"
        assert answer.value == answer.high == bank._tail_point(None)
        if dependent == "count":
            assert answer.value == float(admission.ceiling)
        elif dependent == "sum":
            assert answer.value == admission.ceiling * admission.max_abs_y
        else:
            assert answer.value == max(r.y for r in records)


class _NanEstimator:
    """Stand-in for a promoted estimator whose answer is NaN."""

    def estimate(self) -> float:
        return NAN


class TestTopMatchesSortedReference:
    """``top(n)`` equals ranking the full ``estimates()`` dict by sorting."""

    @staticmethod
    def _bank(dependent, seed, nan_keys):
        rng = np.random.default_rng(seed)
        query = CorrelatedQuery(dependent, "min", epsilon=9.0)
        budget = GatedKeyedBank(query)._estimator_bytes_hint * 3
        bank = GatedKeyedBank(
            query,
            promote_threshold=8,
            sketch_capacity=24,
            memory_budget=budget,
        )
        keys = np.minimum(rng.zipf(1.3, size=600), 60)
        # Integer-valued x and y: tail points and estimates tie often.
        xs = rng.integers(1, 20, size=600)
        ys = rng.integers(-2, 4, size=600)
        for key, x, y in zip(keys.tolist(), xs.tolist(), ys.tolist()):
            bank.update(key, Record(float(x), float(y)))
        for key in bank.promoted_keys()[:nan_keys]:
            bank._promoted[key].estimator = _NanEstimator()
        return bank

    @settings(max_examples=30, deadline=None)
    @given(
        dependent=st.sampled_from(DEPENDENTS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        nan_keys=st.integers(min_value=0, max_value=2),
    )
    def test_property(self, dependent, seed, nan_keys):
        bank = self._bank(dependent, seed, nan_keys)
        assert bank.obs_state()["demotions"] >= 1.0  # the budget binds
        for n in (1, 10, len(bank), len(bank) + 5):
            want = rank_estimates_sorted(bank.estimates().items(), n)
            assert same_ranking(bank.top(n), want)

    def test_nan_promoted_keys_rank_last(self):
        bank = self._bank("count", 7, nan_keys=2)
        poisoned = [k for k, e in bank._promoted.items() if isinstance(e.estimator, _NanEstimator)]
        assert len(poisoned) == 2
        ranked = bank.top(len(bank))
        assert [key for key, _ in ranked[-2:]] == poisoned
        assert all(math.isnan(value) for _, value in ranked[-2:])


class TestNonFiniteRecords:
    """A NaN/inf record is refused before the bank's state moves."""

    @staticmethod
    def _bank():
        return GatedKeyedBank(
            CorrelatedQuery("sum", "min", epsilon=9.0),
            sketch_capacity=8,
            promote_threshold=4,
        )

    @pytest.mark.parametrize(
        "record", [Record(1.0, math.inf), Record(math.nan, 1.0)], ids=["y-inf", "x-nan"]
    )
    def test_tail_key_refused_without_state_change(self, record):
        bank = self._bank()
        bank.update("b", Record(2.0, 1.0))
        before = pickle.dumps(bank)
        with pytest.raises(StreamError, match="non-finite"):
            bank.update("a", record)
        assert pickle.dumps(bank) == before
        assert "a" not in bank
        assert bank._admission.max_abs_y == 1.0
        # Unseen keys keep a finite (zero) ceiling answer, not 0 * inf.
        assert bank.estimate_interval("never-seen").value == 0.0

    def test_promoted_key_refused_without_state_change(self):
        bank = self._bank()
        for x in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            bank.update("a", Record(x, 1.0))
        assert bank.is_promoted("a")
        before = pickle.dumps(bank)
        with pytest.raises(StreamError, match="non-finite"):
            bank.update("a", Record(2.0, math.nan))
        assert pickle.dumps(bank) == before
        bank.update("a", Record(7.0, 1.0))
        assert bank._promoted["a"].hits == 7
        assert bank.obs_state()["updates"] == 7.0


class TestMemoryBudget:
    def test_budget_enforced_by_demotion(self, rng):
        probe = GatedKeyedBank(QUERY)
        budget = probe._estimator_bytes_hint * 3
        sink = RecordingSink()
        bank = GatedKeyedBank(
            QUERY,
            promote_threshold=8,
            sketch_capacity=64,
            memory_budget=budget,
            sink=sink,
        )
        for record in _records(rng, 600):
            key = f"k{int(record.x) % 12}"
            bank.update(key, record)
        assert bank.promoted_bytes <= budget
        assert len(bank.promoted_keys()) >= 1
        assert sink.count("keyed.demote") >= 1.0
        demote = sink.events_named("keyed.demote")[0]
        assert {"key", "updates", "bytes"} <= set(demote.fields)

    def test_demoted_key_can_repromote(self, rng):
        bank = GatedKeyedBank(QUERY, promote_threshold=8, sketch_capacity=16)
        for record in _records(rng, 40):
            bank.update("k", record)
        assert bank.is_promoted("k")
        assert bank.demote("k")
        assert not bank.is_promoted("k")
        slot = bank._admission.slot("k")
        assert slot.observed == 40  # lifetime hits survive the demotion
        # Re-promotion needs another threshold's worth of guaranteed hits.
        for record in _records(rng, 8):
            bank.update("k", record)
        assert bank.is_promoted("k")

    def test_demote_unknown_key_is_false(self):
        bank = GatedKeyedBank(QUERY)
        assert not bank.demote("nope")

    def test_impossible_budget_defers_promotion(self, rng):
        bank = GatedKeyedBank(QUERY, promote_threshold=8, memory_budget=1)
        for record in _records(rng, 50):
            bank.update("k", record)
        assert not bank.is_promoted("k")
        assert bank.obs_state()["deferred_promotions"] >= 1.0
        assert bank.promoted_bytes == 0


class TestEviction:
    def test_evict_promoted_key_raises_ceiling(self, rng):
        sink = RecordingSink()
        bank = GatedKeyedBank(QUERY, promote_threshold=8, sink=sink)
        for record in _records(rng, 30):
            bank.update("k", record)
        assert bank.is_promoted("k")
        assert bank.evict("k")
        assert "k" not in bank
        # The forgotten history is folded into the tail bound.
        assert bank.estimate_interval("k").high >= 30.0
        events = sink.events_named("keyed.evict")
        assert len(events) == 1
        assert events[0].fields == {"key": "k", "updates": 30.0}

    def test_evict_sketch_key_and_unknown(self, rng):
        sink = RecordingSink()
        bank = GatedKeyedBank(QUERY, promote_threshold=100, sink=sink)
        for record in _records(rng, 5):
            bank.update("k", record)
        assert bank.evict("k")
        assert not bank.evict("k")
        assert sink.count("keyed.evict") == 1.0


class TestCheckpointRoundTrip:
    def test_pickle_preserves_answers_and_accepts_updates(self, rng, tmp_path):
        bank = GatedKeyedBank(QUERY, promote_threshold=8, sketch_capacity=32)
        records = _records(rng, 300)
        for i, record in enumerate(records[:200]):
            bank.update(f"k{i % 15}", record)
        manager = CheckpointManager(tmp_path, source="keyed-test")
        manager.save(bank, offset=200)
        restored = CheckpointManager(tmp_path, source="keyed-test").restore()
        assert restored is not None and restored.offset == 200
        twin = restored.target
        assert twin.estimates() == bank.estimates()
        assert twin.obs_state() == bank.obs_state()
        # Both copies evolve identically from the checkpoint.
        for i, record in enumerate(records[200:]):
            assert bank.update(f"k{i % 15}", record) == twin.update(
                f"k{i % 15}", record
            )
        assert twin.estimates() == bank.estimates()


class TestObsState:
    def test_aggregates_only_by_default(self, rng):
        bank = GatedKeyedBank(QUERY, promote_threshold=8, sketch_capacity=32)
        for i, record in enumerate(_records(rng, 200)):
            bank.update(f"k{i % 25}", record)
        state = bank.obs_state()
        assert not any(name.startswith("key.") for name in state)
        assert state["keys"] == float(len(bank))
        assert state["updates"] == 200.0
        assert state["promoted"] >= 1.0
        assert state["sketch.capacity"] == 32.0
        assert all(isinstance(v, float) for v in state.values())

    def test_key_detail_capped_at_top_k(self, rng):
        bank = GatedKeyedBank(
            QUERY, promote_threshold=8, sketch_capacity=32, obs_key_detail=3
        )
        for i, record in enumerate(_records(rng, 200)):
            bank.update(f"k{i % 25}", record)
        state = bank.obs_state()
        detailed = {
            name.split(".")[1] for name in state if name.startswith("key.")
        }
        assert len(detailed) == 3
        for name in detailed:
            assert f"key.{name}.estimate" in state
            assert f"key.{name}.low" in state
            assert f"key.{name}.high" in state
