"""The benchmark's four workloads, each a closed loop against the public API.

A workload generates its inputs and exact checkpoint answers in its
constructor, outside every timed region.  Its input is made of
independent *segments* (sub-streams), grouped into passes of
``SEGMENTS`` segments:

* the *scoring* passes (``PASSES`` of them) come from one fixed seed,
  the same in every run.  Accuracy, bound quality and the guarantees are
  scored on them, so those metrics are exact functions of the code:
  their seed-to-seed spread over pools this small was 0.15 to 0.28, too
  wide to gate a change on;
* the *timing* passes (``TIMING_PASSES``) come from the run's seed.

Every pass is timed.  A run plays each scoring pass once, then cycles the
timing passes until its time is up.

For each segment a pass builds fresh summaries (:meth:`Workload.setup`,
timed as set-up), feeds the segment through them one answer at a time
(:meth:`Workload.run`), and hands back every number the library
returned.  Each answer waits for the previous one; only ``sharded-zipf``
starts other processes (its two shard workers).  Why each workload
exists, and which layers it loads or bypasses, is in ``README.md``
beside this file.
"""

from __future__ import annotations

import pickle
import time
from array import array
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

import repro
from repro.core.query import CorrelatedQuery
from repro.datasets.usage import usage_stream
from repro.datasets.zipf import zipf_keys, zipf_stream
from repro.streams.model import Record

import measures
from reference import cross_check, exact_at

#: Prefix of a segment on which the reference is checked against ``exact_series``.
CROSS_CHECK_PREFIX = 3000


@dataclass
class PassResult:
    """What a segment (or a whole pass) measured, and what the library returned."""

    tuples: int
    #: Seconds from the first ingest call to the last answer returned.
    wall_s: float
    #: Seconds from handing over each answer's input to holding its answer.
    latencies: array
    #: Every value the library returned, in call order (answers and bounds).
    answers: array
    #: Workload-specific checkpoint records, scored by :meth:`Workload.evaluate`.
    checkpoints: list = field(default_factory=list)
    #: Converts this pass's seconds to seconds on the reference machine.
    scale: float = 1.0


@dataclass
class Evaluation:
    """A segment scored against the exact reference and the guarantees checked."""

    rel_errors: list[float]
    #: ``(low, high, exact)`` for every checked interval.
    intervals: list[tuple[float, float, float]]
    #: One message per broken guarantee.
    failures: list[str]
    #: Pickled size of the summaries held after the last answer.
    state_bytes: int


#: Seed of the scoring passes.
SCORING_SEED = 2001


def segment_seeds(seed: int, count: int) -> list[int]:
    """Independent, reproducible stream seeds for ``count`` segments."""
    return [
        int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)
    ]


class Workload:
    """One named input set and the closed loop that feeds it."""

    name = ""
    #: Scoring and timing passes, segments per pass, and tuples per segment.
    PASSES = 1
    TIMING_PASSES = 1
    SEGMENTS = 1
    TUPLES = 0
    #: Answers one segment produces.
    answers_per_segment = 0
    #: Tail percentile reported: the highest of p99.9, p99, p95 with ten
    #: answers beyond it that does not sit between two kinds of answer.
    TAIL = 99.0
    #: Extra set-ups timed (and discarded) before each segment's own.
    setup_repeats = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: Lists of segments, one list per pass.
        self.scoring = self._passes(SCORING_SEED, self.PASSES)
        self.timing = self._passes(seed, self.TIMING_PASSES)
        #: Disagreements between the reference and ``exact_series``.
        self.reference_failures = self.cross_check(self.timing[0][0])

    def _passes(self, seed: int, count: int) -> list[list[SimpleNamespace]]:
        pool = [self.segment(s) for s in segment_seeds(seed, count * self.SEGMENTS)]
        return [pool[i : i + self.SEGMENTS] for i in range(0, len(pool), self.SEGMENTS)]

    @property
    def answers_per_pass(self) -> int:
        return self.answers_per_segment * self.SEGMENTS

    def segment(self, seed: int) -> SimpleNamespace:
        """One segment's inputs and exact checkpoint answers."""
        raise NotImplementedError

    def cross_check(self, segment: SimpleNamespace) -> list[str]:
        raise NotImplementedError

    def setup(self):
        """Build the summaries one segment feeds."""
        raise NotImplementedError

    def run(self, state, segment: SimpleNamespace) -> PassResult:
        raise NotImplementedError

    def close(self, state) -> None:
        """Release what :meth:`setup` started."""

    def evaluate(self, state, segment: SimpleNamespace, result: PassResult) -> Evaluation:
        raise NotImplementedError

    def counts(self, state, result: PassResult) -> dict[str, float]:
        """Per-layer counts read from the library after a traced segment."""
        return {}


def _columns(records) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.fromiter((r.x for r in records), dtype=float, count=len(records)),
        np.fromiter((r.y for r in records), dtype=float, count=len(records)),
    )


def _score(columns, failures: list[str], state) -> Evaluation:
    """Score ``(estimates, lows, highs, exact)`` column groups, one per query."""
    rel: list[float] = []
    intervals: list[tuple[float, float, float]] = []
    for estimates, lows, highs, exact in columns:
        exact = exact.tolist()
        rel += [measures.relative_error(e, x) for e, x in zip(estimates.tolist(), exact)]
        intervals += zip(lows.tolist(), highs.tolist(), exact)
    return Evaluation(rel, intervals, failures, _state_bytes(state))


def _records(segment: SimpleNamespace) -> list[Record]:
    """The segment as records, built outside the timed region."""
    return [Record(x, y) for x, y in zip(segment.xs.tolist(), segment.ys.tolist())]


def _state_bytes(state) -> int:
    return len(pickle.dumps(state, pickle.HIGHEST_PROTOCOL))


# ---------------------------------------------------------------- landmark


class LandmarkColumnar(Workload):
    """Three landmark queries fed 1024-tuple column chunks of USAGE."""

    name = "landmark-columnar"
    PASSES = 4
    SEGMENTS = 16
    TUPLES = 25_000
    CHUNK = 1024
    QUERIES = (
        CorrelatedQuery("count", "min", epsilon=99.0),
        CorrelatedQuery("count", "avg"),
        CorrelatedQuery("sum", "max", epsilon=0.5),
    )
    answers_per_segment = -(-TUPLES // CHUNK)

    def segment(self, seed: int) -> SimpleNamespace:
        xs, ys = _columns(usage_stream(self.TUPLES, seed=seed))
        starts = range(0, self.TUPLES, self.CHUNK)
        ends = [min(i + self.CHUNK, self.TUPLES) for i in starts]
        return SimpleNamespace(
            xs=xs,
            ys=ys,
            chunks=[(xs[i : i + self.CHUNK], ys[i : i + self.CHUNK]) for i in starts],
            exact=[exact_at(q, xs, ys, ends) for q in self.QUERIES],
        )

    def cross_check(self, segment: SimpleNamespace) -> list[str]:
        return [
            failure
            for q in self.QUERIES
            for failure in cross_check(q, segment.xs, segment.ys, CROSS_CHECK_PREFIX)
        ]

    def setup(self):
        return [
            repro.build_estimator(q, "piecemeal-uniform", num_buckets=10) for q in self.QUERIES
        ]

    def run(self, estimators, segment: SimpleNamespace) -> PassResult:
        latencies = array("d")
        answers = array("d")
        clock = time.perf_counter
        begin = clock()
        for xs, ys in segment.chunks:
            start = clock()
            for est in estimators:
                est.update_columns(xs, ys, collect="none")
            for est in estimators:
                answers.append(est.estimate())
                answers.extend(est.estimate_bounds())
            latencies.append(clock() - start)
        wall = clock() - begin
        return PassResult(self.TUPLES, wall, latencies, answers)

    def evaluate(self, estimators, segment: SimpleNamespace, result: PassResult) -> Evaluation:
        table = np.asarray(result.answers).reshape(-1, len(self.QUERIES), 3)
        columns = [
            (table[:, q, 0], table[:, q, 1], table[:, q, 2], exact)
            for q, exact in enumerate(segment.exact)
        ]
        return _score(columns, [], estimators)


# ----------------------------------------------------------------- sliding


class SlidingScalar(Workload):
    """Three estimators fed USAGE one tuple at a time through ``update``."""

    name = "sliding-scalar"
    PASSES = 3
    SEGMENTS = 6
    TUPLES = 4000
    WINDOW = 2000
    #: Tuples between checkpoints (update answers scored, bounds read).
    EVERY = 50
    QUERIES = (
        (CorrelatedQuery("count", "avg", window=WINDOW), "piecemeal-uniform"),
        (CorrelatedQuery("count", "min", epsilon=99.0, window=WINDOW), "piecemeal-quantile"),
        (CorrelatedQuery("count", "avg"), "piecemeal-quantile"),
    )
    answers_per_segment = TUPLES
    # p99 sits between plain updates and those that rebuild a histogram.
    TAIL = 99.9
    setup_repeats = 3

    def segment(self, seed: int) -> SimpleNamespace:
        xs, ys = _columns(usage_stream(self.TUPLES, seed=seed))
        positions = list(range(self.EVERY, self.TUPLES + 1, self.EVERY))
        return SimpleNamespace(
            xs=xs,
            ys=ys,
            positions=positions,
            exact=[exact_at(q, xs, ys, positions) for q, _ in self.QUERIES],
        )

    def cross_check(self, segment: SimpleNamespace) -> list[str]:
        return [
            failure
            for q, _ in self.QUERIES
            for failure in cross_check(q, segment.xs, segment.ys, CROSS_CHECK_PREFIX)
        ]

    def setup(self):
        return [repro.build_estimator(q, m, num_buckets=10) for q, m in self.QUERIES]

    def run(self, estimators, segment: SimpleNamespace) -> PassResult:
        first, second, third = (est.update for est in estimators)
        records = _records(segment)
        latencies = array("d")
        answers = array("d")
        checkpoints: list = []
        clock = time.perf_counter
        lat = latencies.append
        out = answers.append
        begin = clock()
        done = 0
        for end in segment.positions:
            for record in records[done:end]:
                start = clock()
                a = first(record)
                b = second(record)
                c = third(record)
                lat(clock() - start)
                out(a)
                out(b)
                out(c)
            done = end
            row = [a, b, c]
            for est in estimators:
                low, high = est.estimate_bounds()
                row += (low, high)
                out(low)
                out(high)
            checkpoints.append(row)
        wall = clock() - begin
        return PassResult(self.TUPLES, wall, latencies, answers, checkpoints)

    def evaluate(self, estimators, segment: SimpleNamespace, result: PassResult) -> Evaluation:
        table = np.asarray(result.checkpoints)
        columns = [
            (table[:, q], table[:, 3 + 2 * q], table[:, 4 + 2 * q], exact)
            for q, exact in enumerate(segment.exact)
        ]
        return _score(columns, [], estimators)


# ------------------------------------------------------------------- keyed


class KeyedZipf(Workload):
    """A memory-bound ``GatedKeyedBank`` over zipf(1.1) keys."""

    name = "keyed-zipf"
    PASSES = 3
    SEGMENTS = 4
    TUPLES = 50_000
    QUERY = CorrelatedQuery("count", "min", epsilon=9.0)
    METHOD = "piecemeal-uniform"
    SKETCH = 4096
    PROMOTE = 64
    #: Small enough that promotions overrun it and cold keys are demoted.
    BUDGET = 48 * 1024
    CHECKPOINTS = 10
    #: Keys probed at every checkpoint (zipf ranks from hottest to tail), plus the top 10.
    SAMPLE = tuple(range(4)) + tuple(4**i for i in range(1, 8))
    PARITY_KEYS = 5
    answers_per_segment = TUPLES
    # p99.9 sits between byte-accounting refreshes and promotions, and p99 on
    # the knee where the slowest promoted-key updates begin.
    TAIL = 95.0
    setup_repeats = 10

    def segment(self, seed: int) -> SimpleNamespace:
        keys = zipf_keys(self.TUPLES, self.TUPLES // 2, exponent=1.1, seed=seed)
        # The values' generator must not replay the keys' random draws.
        records = zipf_stream(self.TUPLES, seed=seed ^ 0x5EED, exponent=2.0, num_ranks=2000)
        xs, ys = _columns(records)
        return SimpleNamespace(
            keys=keys,
            xs=xs,
            ys=ys,
            positions=[(k + 1) * self.TUPLES // self.CHECKPOINTS for k in range(self.CHECKPOINTS)],
        )

    def cross_check(self, segment: SimpleNamespace) -> list[str]:
        hot = segment.keys == np.bincount(segment.keys).argmax()
        return cross_check(self.QUERY, segment.xs[hot], segment.ys[hot], CROSS_CHECK_PREFIX)

    def exact(self, segment: SimpleNamespace, key: int, t: int) -> float:
        """The key's exact answer after ``t`` tuples of the segment."""
        seen = segment.keys[:t] == key
        if not seen.any():
            return 0.0
        xs, ys = segment.xs[:t][seen], segment.ys[:t][seen]
        return float(exact_at(self.QUERY, xs, ys, [len(xs)])[0])

    def setup(self):
        return repro.GatedKeyedBank(
            self.QUERY,
            self.METHOD,
            num_buckets=10,
            sketch_capacity=self.SKETCH,
            promote_threshold=self.PROMOTE,
            memory_budget=self.BUDGET,
        )

    def run(self, bank, segment: SimpleNamespace) -> PassResult:
        keys = segment.keys.tolist()
        records = _records(segment)
        update = bank.update
        latencies = array("d")
        answers = array("d")
        checkpoints: list = []
        clock = time.perf_counter
        lat = latencies.append
        out = answers.append
        begin = clock()
        done = 0
        for end in segment.positions:
            for key, record in zip(keys[done:end], records[done:end]):
                start = clock()
                value = update(key, record)
                lat(clock() - start)
                out(value)
            done = end
            top = [key for key, _ in bank.top(10)]
            probes = self.SAMPLE + tuple(k for k in top if k not in self.SAMPLE)
            for key in probes:
                answer = bank.estimate_interval(key)
                out(answer.value)
                out(answer.low)
                out(answer.high)
                checkpoints.append((end, key, answer, bank.promoted_bytes))
        wall = clock() - begin
        return PassResult(self.TUPLES, wall, latencies, answers, checkpoints)

    def evaluate(self, bank, segment: SimpleNamespace, result: PassResult) -> Evaluation:
        rel: list[float] = []
        intervals: list[tuple[float, float, float]] = []
        failures: list[str] = []
        for t, key, answer, promoted_bytes in result.checkpoints:
            exact = self.exact(segment, key, t)
            rel.append(measures.relative_error(answer.value, exact))
            if not answer.exact_history:  # documented as a point; parity-checked below
                intervals.append((answer.low, answer.high, exact))
            if promoted_bytes > self.BUDGET:
                failures.append(f"promoted_bytes {promoted_bytes} > budget {self.BUDGET} at {t}")
        if bank.obs_state()["demotions"] == 0:
            failures.append("no demotions: the memory budget does not bind")
        if bank.promoted_bytes > self.BUDGET:
            failures.append(f"promoted_bytes {bank.promoted_bytes} > budget {self.BUDGET}")
        failures += self._parity(bank, segment)
        return Evaluation(rel, intervals, failures, _state_bytes(bank))

    def _parity(self, bank, segment: SimpleNamespace) -> list[str]:
        """Exact-history promoted keys must equal a standalone estimator."""
        exact_keys = sorted(
            k for k in bank.promoted_keys() if bank.estimate_interval(k).exact_history
        )
        if not exact_keys:
            return ["no promoted key with an exact history to parity-check"]
        failures = []
        for key in exact_keys[: self.PARITY_KEYS]:
            alone = repro.build_estimator(self.QUERY, self.METHOD, num_buckets=10)
            mine = segment.keys == key
            for x, y in zip(segment.xs[mine].tolist(), segment.ys[mine].tolist()):
                alone.update(Record(x, y))
            if alone.estimate() != bank.estimate(key):
                failures.append(
                    f"key {key}: bank {bank.estimate(key)!r} != standalone {alone.estimate()!r}"
                )
        return failures

    def counts(self, bank, result: PassResult) -> dict[str, float]:
        state = bank.obs_state()
        return {
            "keyed.promotions": state["promotions"],
            "keyed.demotions": state["demotions"],
            "keyed.deferred_promotions": state["deferred_promotions"],
            "keyed.sketch_replacements": state["sketch.replacements"],
            "keyed.promoted_bytes": state["promoted_bytes"],
        }


# ----------------------------------------------------------------- sharded


class ShardedZipf(Workload):
    """ZIPF landmark AVG through a two-shard ``ShardedIngestor``."""

    name = "sharded-zipf"
    PASSES = 4
    SEGMENTS = 8
    TUPLES = 65_536
    BATCH = 4096
    SHARDS = 2
    QUERY = CorrelatedQuery("count", "avg")
    answers_per_segment = -(-TUPLES // BATCH)
    TAIL = 95.0
    setup_repeats = 0

    def segment(self, seed: int) -> SimpleNamespace:
        xs, ys = _columns(zipf_stream(self.TUPLES, seed=seed, exponent=7.0))
        starts = range(0, self.TUPLES, self.BATCH)
        ends = [min(i + self.BATCH, self.TUPLES) for i in starts]
        return SimpleNamespace(
            xs=xs,
            ys=ys,
            ends=ends,
            exact=exact_at(self.QUERY, xs, ys, ends),
        )

    def cross_check(self, segment: SimpleNamespace) -> list[str]:
        return cross_check(self.QUERY, segment.xs, segment.ys, CROSS_CHECK_PREFIX)

    def setup(self):
        ingestor = repro.ShardedIngestor(
            self.QUERY,
            "piecemeal-uniform",
            num_buckets=10,
            shards=self.SHARDS,
            partition="round-robin",
        )
        ingestor.start()
        return ingestor

    def close(self, ingestor) -> None:
        ingestor.close()

    def run(self, ingestor, segment: SimpleNamespace) -> PassResult:
        records = _records(segment)
        batches = [records[s:e] for s, e in zip([0] + segment.ends, segment.ends)]
        latencies = array("d")
        answers = array("d")
        clock = time.perf_counter
        begin = clock()
        for batch in batches:
            start = clock()
            ingestor.ingest(batch)
            value = ingestor.query()
            bound = ingestor.merge_error_bound()
            latencies.append(clock() - start)
            answers.append(value)
            answers.append(bound)
        wall = clock() - begin
        return PassResult(self.TUPLES, wall, latencies, answers)

    def evaluate(self, ingestor, segment: SimpleNamespace, result: PassResult) -> Evaluation:
        table = np.asarray(result.answers).reshape(-1, 2)
        values, bounds = table[:, 0], table[:, 1]
        return _score(
            [(values, values - bounds, values + bounds, segment.exact)],
            self._shard_accounting(ingestor),
            ingestor.merged_estimator(),
        )

    def _shard_accounting(self, ingestor) -> list[str]:
        state = ingestor.obs_state()
        per_shard = sum(state[f"shard.{s}.records"] for s in range(self.SHARDS))
        if ingestor.ingested != per_shard or per_shard != self.TUPLES:
            return [f"ingested {ingestor.ingested} != per-shard records {per_shard:.0f}"]
        return []

    def counts(self, ingestor, result: PassResult) -> dict[str, float]:
        state = ingestor.obs_state()
        shards = [state[f"shard.{s}.records"] for s in range(self.SHARDS)]
        return {
            # The queue transport counts chunks; the shm transport counts slots.
            "parallel.transport.chunks": state.get(
                "transport.chunks", state.get("transport.slots", 0.0)
            ),
            "parallel.transport.bytes": state["transport.bytes"],
            "parallel.transport.stalls": state.get("transport.stalls", 0.0),
            "parallel.transport.stall_s": state.get("transport.stall_seconds", 0.0),
            "parallel.shard_skew": max(shards) / min(shards),
            "parallel.merge_bound": result.answers[-1],
        }

    def baseline(self, rounds: int = 3) -> tuple[float, float]:
        """Throughput and error of the same segments and cadence in one process.

        One estimator per segment takes each batch through
        ``update_columns`` and answers ``estimate()`` after it: the
        like-for-like reference for the two-shard figures (the scalar
        ``update`` path is not one).  Throughput is at reference speed, as
        the workload's own.
        """
        rates = []
        for _ in range(rounds):
            scale = measures.CALIBRATION_REFERENCE_S / measures.calibration_s()
            rel = []
            wall = 0.0
            for segment in self.timing[0]:
                est = repro.build_estimator(self.QUERY, "piecemeal-uniform", num_buckets=10)
                values = []
                begin = time.perf_counter()
                for start, end in zip([0] + segment.ends, segment.ends):
                    est.update_columns(segment.xs[start:end], segment.ys[start:end], collect="none")
                    values.append(est.estimate())
                wall += time.perf_counter() - begin
                rel += [
                    measures.relative_error(v, x) for v, x in zip(values, segment.exact.tolist())
                ]
            rates.append(self.TUPLES * self.SEGMENTS / (wall * scale))
        return measures.median(rates), measures.mean(rel)


WORKLOADS = {w.name: w for w in (LandmarkColumnar, SlidingScalar, KeyedZipf, ShardedZipf)}

#: Per-layer counts a workload's :meth:`~Workload.counts` may report: name,
#: unit, and how segments combine (flows add up; levels are averaged).  The
#: workloads that do not load a layer report 0.
COUNTS = (
    ("keyed.promotions", "count", "sum"),
    ("keyed.demotions", "count", "sum"),
    ("keyed.deferred_promotions", "count", "sum"),
    ("keyed.sketch_replacements", "count", "sum"),
    ("keyed.promoted_bytes", "bytes", "mean"),
    ("parallel.transport.chunks", "count", "sum"),
    ("parallel.transport.bytes", "bytes", "sum"),
    ("parallel.transport.stalls", "count", "sum"),
    ("parallel.transport.stall_s", "s", "sum"),
    ("parallel.shard_skew", "ratio", "mean"),
    ("parallel.merge_bound", "count", "mean"),
)
