"""Columnar routing: every record reaches the shard, in the order, that
per-record ``assign()`` routing would send it to.

The coordinator partitions whole column batches (striped slices,
``hash`` over ``xs.tolist()``, ``np.searchsorted`` for ranges).  These
tests replay the same batches through an inline per-record reference and
compare each shard's record sequence, then check that ``ingest`` and
``ingest_columns`` give bit-identical merged estimators.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro.core.query import CorrelatedQuery
from repro.parallel import ShardedIngestor, make_partitioner
from repro.streams.columns import records_to_columns
from repro.streams.model import Record

MIN_QUERY = CorrelatedQuery(dependent="count", independent="min", epsilon=0.5)
AVG_QUERY = CorrelatedQuery(dependent="sum", independent="avg")
POLICIES = ["round-robin", "hash", "range"]
BATCH_SIZES = [1, 7, 4096, 10_000]


def _stream(n: int, seed: int = 17) -> list[Record]:
    """Heavy duplicates, signed zeros and a few distinct tails."""
    rng = random.Random(seed)
    common = [-0.0, 0.0, 1.0, 2.5, 2.5, 3.0, 7.25, -4.0]
    records = []
    for _ in range(n):
        x = rng.choice(common) if rng.random() < 0.7 else round(rng.gauss(2.0, 3.0), 3)
        records.append(Record(x, rng.choice([1.0, 2.0, 0.5])))
    return records


def _batches(records: list[Record], size: int) -> list[list[Record]]:
    return [records[lo : lo + size] for lo in range(0, len(records), size)]


class _Recorder:
    """Keeps every shipped column pair instead of moving it anywhere."""

    def __init__(self, shards: int) -> None:
        self.sent: list[list[tuple[float, float]]] = [[] for _ in range(shards)]

    def send_columns(self, shard: int, xs, ys) -> None:
        self.sent[shard].extend(zip(xs.tolist(), ys.tolist()))


def _routed(partition, shards, chunk_size, batches, columnar=False):
    """Each shard's (x, y) sequence as the coordinator routes ``batches``."""
    ingestor = ShardedIngestor(
        MIN_QUERY, shards=shards, partition=partition, chunk_size=chunk_size
    )
    recorder = _Recorder(shards)
    ingestor._send_columns = recorder.send_columns
    ingestor._started = True  # route only: no worker processes
    for batch in batches:
        if columnar:
            ingestor.ingest_columns(*records_to_columns(batch))
        else:
            ingestor.ingest(batch)
    ingestor.flush()
    return recorder.sent


def _reference(partition, shards, chunk_size, batches):
    """Per-record routing: stripes for round-robin, ``assign()`` otherwise."""
    partitioner = make_partitioner(partition, shards)
    out: list[list[tuple[float, float]]] = [[] for _ in range(shards)]
    sample: list[Record] = []

    def route(records):
        for record in records:
            out[partitioner.assign(record)].append((record.x, record.y))

    for batch in batches:
        if partition == "round-robin":
            size = min(chunk_size, max(1, -(-len(batch) // shards)))
            for lo in range(0, len(batch), size):
                shard = partitioner.next_chunk_shard()
                out[shard].extend((r.x, r.y) for r in batch[lo : lo + size])
        elif partition == "range" and not partitioner.primed:
            sample.extend(batch)
            if len(sample) >= max(chunk_size, 4 * shards):
                partitioner.prime([r.x for r in sample])
                route(sample)
                sample = []
        else:
            route(batch)
    if sample:  # flush() primes on whatever sample it has
        partitioner.prime([r.x for r in sample])
        route(sample)
    return out


def _bits(sequence):
    """Compare floats by bit pattern, so -0.0 and 0.0 differ."""
    return [np.array(pair, dtype=np.float64).tobytes() for pair in sequence]


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("partition", POLICIES)
def test_routing_matches_per_record_reference(partition, batch_size):
    batches = _batches(_stream(10_007), batch_size)
    expected = _reference(partition, 3, 512, batches)
    got = _routed(partition, 3, 512, batches)
    assert [_bits(s) for s in got] == [_bits(s) for s in expected]
    assert sum(map(len, got)) == 10_007


@pytest.mark.parametrize("partition", POLICIES)
def test_ingest_columns_routes_like_ingest(partition):
    batches = _batches(_stream(3000, seed=5), 700)
    by_records = _routed(partition, 4, 256, batches)
    by_columns = _routed(partition, 4, 256, batches, columnar=True)
    assert [_bits(s) for s in by_columns] == [_bits(s) for s in by_records]


def test_range_values_on_the_edges_go_left():
    # A sample of 0..99 fixes the edges at 25, 50 and 75; a value equal to
    # an edge belongs to the lower shard, as bisect_left places it.
    sample = [Record(float(v)) for v in range(100)]
    probes = [Record(v) for v in (25.0, 50.0, 75.0, 24.999, 50.001, -0.0, 0.0, 99.0)]
    got = _routed("range", 4, 100, [sample, probes])
    expected = _reference("range", 4, 100, [sample, probes])
    assert got == expected
    assert (25.0, 1.0) in got[0] and (50.0, 1.0) in got[1] and (75.0, 1.0) in got[2]


def test_hash_sends_signed_zeros_and_duplicates_together():
    records = [Record(-0.0), Record(0.0), Record(2.5), Record(2.5), Record(0.0)]
    got = _routed("hash", 4, 64, [records])
    zero_shards = {s for s, seq in enumerate(got) for x, _ in seq if x == 0.0}
    dup_shards = {s for s, seq in enumerate(got) for x, _ in seq if x == 2.5}
    assert len(zero_shards) == 1 and len(dup_shards) == 1


def test_ingest_columns_does_not_alias_the_callers_arrays():
    xs = np.arange(10, dtype=np.float64)
    ys = np.ones(10)
    ingestor = ShardedIngestor(MIN_QUERY, shards=2, chunk_size=64)
    recorder = _Recorder(2)
    ingestor._send_columns = recorder.send_columns
    ingestor._started = True
    ingestor.ingest_columns(xs, ys)  # below chunk_size: stays pending
    xs[:] = -1.0
    ys[:] = -1.0
    ingestor.flush()
    assert sorted(x for seq in recorder.sent for x, _ in seq) == list(range(10))
    assert all(y == 1.0 for seq in recorder.sent for _, y in seq)


@pytest.mark.parametrize("partition", POLICIES)
def test_merged_estimators_bit_identical_across_entries(partition):
    records = _stream(2500, seed=23)
    xs, ys = records_to_columns(records)
    blobs = {}
    for entry in ("ingest", "ingest_columns"):
        with ShardedIngestor(
            AVG_QUERY, shards=3, partition=partition, chunk_size=128
        ) as ingestor:
            for lo in range(0, len(records), 900):
                if entry == "ingest":
                    ingestor.ingest(records[lo : lo + 900])
                else:
                    ingestor.ingest_columns(xs[lo : lo + 900], ys[lo : lo + 900])
            merged = ingestor.merged_estimator()
            blobs[entry] = (
                pickle.dumps(merged),
                merged.estimate(),
                ingestor.merge_error_bound(),
            )
    assert len(set(blobs.values())) == 1, sorted(blobs)
