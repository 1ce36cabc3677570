"""ShardedIngestor end-to-end: workers, partition policies, error paths."""

from __future__ import annotations

import math
import os
import pickle
import queue
import random
import signal
import time

import numpy as np
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

# Every public call that needs live workers, for the refusal tests.
LATER_CALLS = {
    "ingest": lambda ingestor: ingestor.ingest(_stream(100, seed=4)),
    "ingest_columns": lambda ingestor: ingestor.ingest_columns(
        *records_to_columns(_stream(100, seed=4))
    ),
    "flush": lambda ingestor: ingestor.flush(),
    "query": lambda ingestor: ingestor.query(),
    "merged_estimator": lambda ingestor: ingestor.merged_estimator(),
}


def _captured(chunk_size: int) -> ShardedIngestor:
    """A one-shard ingestor whose queue is in-process: no worker reads it."""
    ingestor = ShardedIngestor(MIN_QUERY, shards=1, chunk_size=chunk_size)
    ingestor._queues = [queue.SimpleQueue()]
    ingestor._started = True
    return ingestor


def _drain(shard_queue) -> list[tuple]:
    messages = []
    while not shard_queue.empty():
        messages.append(shard_queue.get_nowait())
    return messages


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

    @pytest.mark.parametrize(
        "option, value",
        [("transport", "queue"), ("slots_per_shard", 4), ("stall_timeout", 1.0)],
    )
    def test_retired_wire_options_are_unknown(self, option, value):
        with pytest.raises(ConfigurationError, match=f"unknown estimator option '{option}'"):
            ShardedIngestor(MIN_QUERY, **{option: value})


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

    def test_worker_error_reports_partial_ingested_count(self):
        with ShardedIngestor(MIN_QUERY, shards=1, chunk_size=100) as ingestor:
            ingestor.ingest(_stream(300))
            ingestor.flush()
            poison_shard(ingestor, 0)
            with pytest.raises(StreamError, match=r"after ingesting 300 of"):
                ingestor.query()

    def test_worker_error_emits_obs_event(self):
        sink = RecordingSink()
        with ShardedIngestor(MIN_QUERY, shards=1, chunk_size=64, sink=sink) as ingestor:
            poison_shard(ingestor, 0)
            with pytest.raises(StreamError):
                ingestor.query()
        events = sink.events_named("parallel.worker_error")
        assert events and events[0].fields["shard"] == 0.0

    def test_killed_worker_refuses_later_ingestion_at_once(self):
        with ShardedIngestor(
            MIN_QUERY, shards=2, chunk_size=64, result_timeout=1.0
        ) as ingestor:
            ingestor.ingest(_stream(1000))
            ingestor.flush()
            victim = ingestor._processes[1]
            victim.kill()
            victim.join(timeout=5.0)
            with pytest.raises(StreamError, match="died before answering"):
                ingestor.query()
            started = time.perf_counter()
            later_calls = (
                lambda: ingestor.ingest(_stream(1000, seed=4)),
                ingestor.flush,
                ingestor.query,
            )
            for later in later_calls:
                with pytest.raises(StreamError, match="died before answering"):
                    later()
            # Refused without another wait on the dead shard.
            assert time.perf_counter() - started < 0.5
            assert ingestor.ingested == 1000

    @pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP")
    def test_timed_out_query_refuses_later_work(self):
        with ShardedIngestor(
            MIN_QUERY, shards=2, chunk_size=64, result_timeout=0.5
        ) as ingestor:
            ingestor.ingest(_stream(200))
            stalled = ingestor._processes[0]
            os.kill(stalled.pid, signal.SIGSTOP)
            try:
                with pytest.raises(StreamError, match="timed out"):
                    ingestor.query()
                # Its late summary must not be merged as a current answer.
                with pytest.raises(StreamError, match="timed out"):
                    ingestor.query()
                with pytest.raises(StreamError, match="timed out"):
                    ingestor.ingest(_stream(10))
                assert ingestor.ingested == 200
            finally:
                os.kill(stalled.pid, signal.SIGCONT)

    @pytest.mark.parametrize("call", sorted(LATER_CALLS))
    def test_killed_worker_refuses_each_call_at_once(self, call):
        with ShardedIngestor(
            MIN_QUERY, shards=2, chunk_size=64, result_timeout=1.0
        ) as ingestor:
            ingestor.ingest(_stream(500))
            ingestor.flush()
            victim = ingestor._processes[0]
            victim.kill()
            victim.join(timeout=5.0)
            with pytest.raises(StreamError, match="died before answering"):
                ingestor.query()
            chunks = ingestor.obs_state()["transport.chunks"]
            started = time.perf_counter()
            with pytest.raises(StreamError, match="died before answering"):
                LATER_CALLS[call](ingestor)
            assert time.perf_counter() - started < 0.5
            assert ingestor.ingested == 500
            assert ingestor.obs_state()["transport.chunks"] == chunks

    @pytest.mark.parametrize("call", sorted(LATER_CALLS))
    def test_failed_worker_refuses_each_call(self, call):
        with ShardedIngestor(MIN_QUERY, shards=2, chunk_size=64) as ingestor:
            ingestor.ingest(_stream(300))
            poison_shard(ingestor, 1)
            with pytest.raises(StreamError, match="shard 1 failed") as first:
                ingestor.query()
            chunks = ingestor.obs_state()["transport.chunks"]
            with pytest.raises(StreamError) as later:
                LATER_CALLS[call](ingestor)
            assert str(first.value) in str(later.value)
            assert ingestor.ingested == 300
            assert ingestor.obs_state()["transport.chunks"] == chunks

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

    def test_wire_gauges_and_event(self):
        sink = RecordingSink()
        with ShardedIngestor(MIN_QUERY, shards=2, chunk_size=64, sink=sink) as ingestor:
            ingestor.ingest(_stream(600, seed=21))
            ingestor.query()
            state = ingestor.obs_state()
        # 600 records in chunks of at most 64; each pickled chunk carries
        # at least its two raw float64 columns.
        assert state["transport.chunks"] >= 600 / 64
        assert state["transport.bytes"] >= 2 * 8 * 600
        event = next(e for e in sink.events if e.name == "parallel.transport")
        assert event.fields == {
            "chunks": state["transport.chunks"],
            "bytes": state["transport.bytes"],
        }


class TestWire:
    """Each flushed column pair travels as pickled ``chunk_size`` slices."""

    @pytest.mark.parametrize(
        "batches, chunk_size, lengths",
        [
            ([25], 10, [10, 10, 5]),
            ([20], 10, [10, 10]),
            ([1], 10, [1]),
            ([3], 1, [1, 1, 1]),
            ([7, 7], 10, [10, 4]),
            ([600], 64, [64] * 9 + [24]),
        ],
        ids=["tail", "exact", "single", "unit-chunks", "buffered", "many"],
    )
    def test_chunks_split_at_chunk_size(self, batches, chunk_size, lengths):
        ingestor = _captured(chunk_size)
        records = _stream(sum(batches), seed=31)
        lo = 0
        for size in batches:
            ingestor.ingest(records[lo : lo + size])
            lo += size
        ingestor.flush()
        messages = _drain(ingestor._queues[0])
        assert [kind for kind, _ in messages] == ["chunk"] * len(lengths)
        chunks = [pickle.loads(blob) for _, blob in messages]
        assert [len(xs) for xs, _ in chunks] == lengths
        xs, ys = records_to_columns(records)
        assert np.concatenate([c[0] for c in chunks]).tobytes() == xs.tobytes()
        assert np.concatenate([c[1] for c in chunks]).tobytes() == ys.tobytes()
        state = ingestor.obs_state()
        assert state["transport.chunks"] == len(lengths)
        assert state["transport.bytes"] == sum(len(blob) for _, blob in messages)

    def test_chunk_blob_keeps_every_bit(self):
        xs = np.array([-0.0, 0.0, 5e-324, -1.7976931348623157e308, 1e-300, 3.0])
        ys = np.array([0.5, -2.0, 1e-310, 7.0, -0.0, 1.0])
        ingestor = _captured(4)
        ingestor.ingest_columns(xs, ys)
        ingestor.flush()
        blobs = [blob for _, blob in _drain(ingestor._queues[0])]
        # The wire format: one highest-protocol pickle of each column slice.
        assert blobs == [
            pickle.dumps((xs[lo : lo + 4], ys[lo : lo + 4]), protocol=pickle.HIGHEST_PROTOCOL)
            for lo in (0, 4)
        ]
        got_xs, got_ys = (np.concatenate(col) for col in zip(*map(pickle.loads, blobs)))
        assert got_xs.dtype == got_ys.dtype == np.float64
        assert got_xs.tobytes() == xs.tobytes()
        assert got_ys.tobytes() == ys.tobytes()

    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 5000])
    def test_query_sees_every_chunk_sent_before_it(self, chunk_size):
        sink = RecordingSink()
        records = _stream(700, seed=37)
        with ShardedIngestor(
            MIN_QUERY, shards=2, chunk_size=chunk_size, sink=sink
        ) as ingestor:
            for total in (400, 700):
                for lo in range(ingestor.ingested, total, 137):
                    ingestor.ingest(records[lo : min(lo + 137, total)])
                ingestor.query()
                state = ingestor.obs_state()
                merge = sink.events_named("parallel.merge")[-1]
                # The query message is a fence: each summary counts every
                # record its shard was sent before the query went out.
                assert state["pending"] == 0.0
                for shard in (0, 1):
                    assert merge.fields[f"shard_{shard}_records"] == state[
                        f"shard.{shard}.records"
                    ]
                assert merge.fields["records"] == float(total)


class TestNonFiniteBatches:
    """A NaN or infinite value is refused before anything is sent."""

    @pytest.mark.parametrize("partition", ["round-robin", "hash", "range"])
    def test_rejected_by_the_coordinator(self, partition):
        keys = ("shard.0.records", "shard.1.records", "pending", "ingested")
        with ShardedIngestor(
            MIN_QUERY, shards=2, partition=partition, chunk_size=64
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
