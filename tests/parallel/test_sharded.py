"""ShardedIngestor end-to-end: workers, partition policies, error paths."""

from __future__ import annotations

import math
import random

import pytest

from repro.core.engine import build_estimator
from repro.core.query import CorrelatedQuery
from repro.exceptions import ConfigurationError, StreamError
from repro.obs.registry import MetricsRegistry
from repro.obs.sink import RecordingSink
from repro.obs.trace import Tracer
from repro.parallel import ShardedIngestor
from repro.streams.columns import records_to_columns
from repro.streams.model import Record
from tests.parallel.conftest import poison_shard


def _stream(n: int, seed: int = 3) -> list[Record]:
    rng = random.Random(seed)
    return [Record(x=rng.gauss(100.0, 20.0), y=1.0) for _ in range(n)]


MIN_QUERY = CorrelatedQuery(dependent="count", independent="min", epsilon=0.5)
AVG_QUERY = CorrelatedQuery(dependent="count", independent="avg")


class TestValidation:
    def test_rejects_bad_shard_counts(self):
        for bad in (0, -1, 65, 2.5):
            with pytest.raises(ConfigurationError, match="shards"):
                ShardedIngestor(MIN_QUERY, shards=bad)

    def test_rejects_sliding_queries(self):
        sliding = CorrelatedQuery(
            dependent="count", independent="min", epsilon=0.5, window=100
        )
        with pytest.raises(ConfigurationError, match="not shardable"):
            ShardedIngestor(sliding)

    def test_rejects_time_window(self):
        with pytest.raises(ConfigurationError, match="time_window"):
            ShardedIngestor(MIN_QUERY, time_window=5.0)

    def test_rejects_non_focused_methods(self):
        with pytest.raises(ConfigurationError, match="focused"):
            ShardedIngestor(MIN_QUERY, method="equiwidth")

    def test_rejects_unknown_start_method(self):
        with pytest.raises(ConfigurationError, match="start method"):
            ShardedIngestor(MIN_QUERY, start_method="teleport")

    def test_rejects_bad_partition_with_did_you_mean(self):
        with pytest.raises(ConfigurationError, match="did you mean"):
            ShardedIngestor(MIN_QUERY, partition="hsah")

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ConfigurationError, match="chunk_size"):
            ShardedIngestor(MIN_QUERY, chunk_size=0)


class TestEndToEnd:
    @pytest.mark.parametrize("partition", ["round-robin", "hash", "range"])
    def test_two_shards_match_single_process(self, partition):
        records = _stream(4000)
        single = build_estimator(MIN_QUERY, "piecemeal-uniform", num_buckets=10)
        single.update_many(records)
        exact = sum(1 for r in records if r.x <= 1.5 * min(r.x for r in records))
        with ShardedIngestor(
            MIN_QUERY, shards=2, partition=partition, chunk_size=256
        ) as ingestor:
            ingestor.ingest(records)
            merged = ingestor.merged_estimator()
            answer = merged.estimate()
            bound = ingestor.merge_error_bound()
        assert merged.extremum == min(r.x for r in records)
        assert bound is not None and bound >= 0.0
        assert abs(answer - exact) <= bound + 2.0

    def test_avg_independent_query(self):
        records = _stream(3000, seed=9)
        with ShardedIngestor(AVG_QUERY, shards=2, chunk_size=256) as ingestor:
            ingestor.ingest(records)
            answer = ingestor.query()
            assert ingestor.merge_error_bound() >= 0.0
        exact_mean = sum(r.x for r in records) / len(records)
        exact = sum(1 for r in records if r.x > exact_mean)
        assert math.isfinite(answer)
        assert answer == pytest.approx(exact, rel=0.2)

    def test_avg_dependent_records_none_bound(self):
        # AVG dependents define no output-unit bound (a ratio of bounds
        # does not bound a ratio); the coordinator records None rather
        # than a misleading number.
        query = CorrelatedQuery(dependent="avg", independent="min", epsilon=0.5)
        with ShardedIngestor(query, shards=2, chunk_size=64) as ingestor:
            ingestor.ingest(_stream(500, seed=17))
            assert math.isfinite(ingestor.query())
            assert ingestor.merge_error_bound() is None

    def test_ingestion_continues_after_query(self):
        records = _stream(2000, seed=5)
        with ShardedIngestor(MIN_QUERY, shards=2, chunk_size=128) as ingestor:
            ingestor.ingest(records[:1000])
            first = ingestor.merged_estimator()
            ingestor.ingest(records[1000:])
            second = ingestor.merged_estimator()
        assert second.extremum <= first.extremum
        assert ingestor.ingested == 2000

    def test_single_shard_is_plain_passthrough(self):
        records = _stream(1500, seed=13)
        single = build_estimator(MIN_QUERY, "piecemeal-uniform", num_buckets=10)
        single.update_many(records)
        with ShardedIngestor(MIN_QUERY, shards=1, chunk_size=100) as ingestor:
            ingestor.ingest(records)
            merged = ingestor.merged_estimator()
        # One shard: same records in the same order, no merging at all.
        assert merged.estimate() == pytest.approx(single.estimate(), rel=1e-12)
        assert merged.merge_error_bound() == 0.0

    def test_tuple_records_are_coerced(self):
        with ShardedIngestor(MIN_QUERY, shards=2, chunk_size=64) as ingestor:
            ingestor.ingest([(float(v), 1.0) for v in range(200)])
            assert ingestor.ingested == 200
            assert math.isfinite(ingestor.query())


class TestWorkerFailure:
    def test_worker_exception_propagates_as_stream_error(self):
        with ShardedIngestor(MIN_QUERY, shards=2, chunk_size=8) as ingestor:
            ingestor.ingest(_stream(16))
            poison_shard(ingestor, 1)
            with pytest.raises(StreamError, match="shard 1 failed"):
                ingestor.query()

    def test_later_errors_carry_the_first_failure(self):
        with ShardedIngestor(MIN_QUERY, shards=2, chunk_size=8) as ingestor:
            ingestor.ingest(_stream(16))
            poison_shard(ingestor, 0)
            with pytest.raises(StreamError, match="shard 0 failed") as first:
                ingestor.query()
            for later in (ingestor.query, lambda: ingestor.ingest(_stream(8))):
                with pytest.raises(StreamError) as err:
                    later()
                assert str(first.value) in str(err.value)
                assert "unpickle" not in str(err.value)

    def test_closed_ingestor_refuses_restart(self):
        ingestor = ShardedIngestor(MIN_QUERY, shards=1)
        ingestor.start()
        ingestor.close()
        with pytest.raises(StreamError, match="closed"):
            ingestor.start()


class TestObservability:
    def test_obs_state_and_events(self):
        registry = MetricsRegistry()
        sink = RecordingSink(registry)
        tracer = Tracer(sink)
        records = _stream(1000, seed=21)
        with ShardedIngestor(
            MIN_QUERY, shards=2, chunk_size=100, sink=sink, tracer=tracer
        ) as ingestor:
            ingestor.ingest(records)
            ingestor.query()
            state = ingestor.obs_state()
        assert state["shards"] == 2.0
        assert state["ingested"] == 1000.0
        assert state["shard.0.records"] + state["shard.1.records"] + state[
            "pending"
        ] == pytest.approx(1000.0)
        names = [event.name for event in sink.events]
        assert "parallel.ingest" in names
        assert "parallel.merge" in names
        merge_event = next(e for e in sink.events if e.name == "parallel.merge")
        assert merge_event.fields["shards"] == 2.0
        assert "shard_0_records" in merge_event.fields
        # Finished spans export as span.<name> events through the sink.
        assert "span.parallel.ingest" in names
        assert "span.parallel.merge" in names


class TestNonFiniteBatches:
    """A NaN or infinite value is refused before anything is sent."""

    @pytest.mark.parametrize("transport", ["queue", "shm"])
    @pytest.mark.parametrize("partition", ["round-robin", "hash", "range"])
    def test_rejected_by_the_coordinator(self, partition, transport):
        keys = ("shard.0.records", "shard.1.records", "pending", "ingested")
        with ShardedIngestor(
            MIN_QUERY, shards=2, partition=partition, transport=transport, chunk_size=64
        ) as ingestor:
            ingestor.ingest(_stream(300))
            before = {k: ingestor.obs_state()[k] for k in keys}
            bad = _stream(50, seed=4)
            bad[17] = Record(x=float("nan"), y=1.0)
            with pytest.raises(StreamError, match="position 17"):
                ingestor.ingest(bad)
            xs, ys = records_to_columns(_stream(10, seed=6))
            ys[3] = -math.inf
            with pytest.raises(StreamError, match="position 3"):
                ingestor.ingest_columns(xs, ys)
            assert {k: ingestor.obs_state()[k] for k in keys} == before
            # The workers never saw the bad batches: the ingestor still answers.
            assert math.isfinite(ingestor.query())
            assert ingestor.obs_state()["shard.0.records"] + ingestor.obs_state()[
                "shard.1.records"
            ] == 300.0
