"""Self-tests for the benchmark's own arithmetic and plumbing.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import measures  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from reference import cross_check, exact_at  # noqa: E402

import repro  # noqa: E402
from repro.core.focused import FocusedEstimatorBase  # noqa: E402
from repro.core.query import CorrelatedQuery  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ------------------------------------------------------------------ spans


def test_self_time_subtracts_only_direct_children() -> None:
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock=clock)

    def leaf() -> None:
        clock.now += 2.0

    leaf = recorder.wrap("leaf", leaf)

    def middle() -> None:
        clock.now += 1.0
        leaf()
        clock.now += 1.0

    middle = recorder.wrap("middle", middle)

    def outer() -> str:
        clock.now += 3.0
        middle()
        leaf()
        return "done"

    assert recorder.call("outer", outer) == "done"
    assert recorder.totals == {
        "leaf": [2, 4.0],  # two calls, 2 s each, no children
        "middle": [1, 2.0],  # 4 s span minus its 2 s leaf
        "outer": [1, 3.0],  # 9 s span minus middle (4 s) and leaf (2 s)
    }
    # Self times partition the root span exactly.
    assert sum(s for _, s in recorder.totals.values()) == 9.0
    ids = {span_id: (parent, name) for span_id, parent, name, _, _ in recorder.spans}
    (outer_id,) = [i for i, (p, n) in ids.items() if n == "outer"]
    assert ids[outer_id][0] == 0
    assert sorted(n for p, n in ids.values() if p == outer_id) == ["leaf", "middle"]


def test_self_time_survives_an_exception() -> None:
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock=clock)

    def boom() -> None:
        clock.now += 1.0
        raise ValueError("x")

    boom = recorder.wrap("boom", boom)

    def outer() -> None:
        clock.now += 1.0
        with pytest.raises(ValueError):
            boom()

    recorder.call("outer", outer)
    assert recorder.totals == {"boom": [1, 1.0], "outer": [1, 1.0]}


def test_forked_child_does_not_record() -> None:
    recorder = spans.SpanRecorder()
    pid = os.fork()
    if pid == 0:  # child: a recorded span would leave armed == True
        os._exit(0 if not recorder.armed else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert recorder.armed


def test_patching_restores_every_original() -> None:
    engine = sys.modules["repro.core.engine"]
    before = (repro.build_estimator, engine.build_estimator, FocusedEstimatorBase.update)
    recorder = spans.SpanRecorder()
    with spans.patched(recorder):
        assert repro.build_estimator is not before[0]
        est = repro.build_estimator(CorrelatedQuery("count", "avg"), "piecemeal-uniform")
        for x in range(50):
            est.update(repro.Record(float(x)))
    assert (repro.build_estimator, engine.build_estimator, FocusedEstimatorBase.update) == before
    assert recorder.calls("core.build_estimator") == 1
    assert recorder.calls("core.update") == 50


# ------------------------------------------------------------- arithmetic


def test_interval_score() -> None:
    assert measures.interval_score(90.0, 110.0, 100.0) == pytest.approx(0.2)
    # A zero-width bound 5 below the answer pays 2/alpha = 10 per unit missed.
    assert measures.interval_score(95.0, 95.0, 100.0) == pytest.approx(0.5)
    # Below one unit of exact answer the score is absolute.
    assert measures.interval_score(0.0, 0.5, 0.0) == pytest.approx(0.5)
    assert measures.covers(95.0, 95.0, 100.0) is False
    with pytest.raises(ValueError):
        measures.interval_score(2.0, 1.0, 1.0)


def test_relative_error() -> None:
    assert measures.relative_error(110.0, 100.0) == pytest.approx(0.1)
    assert measures.relative_error(0.5, 0.0) == 0.5


def test_tail_needs_ten_answers_beyond() -> None:
    assert measures.check_tail(1000, 99.0) == 99.0
    assert measures.check_tail(10_000, 99.9) == 99.9
    with pytest.raises(ValueError):
        measures.check_tail(999, 99.0)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_each_workload_tail_has_ten_answers_beyond(name: str) -> None:
    w = workloads.WORKLOADS[name]
    guaranteed = w.answers_per_segment * w.SEGMENTS * (w.PASSES + w.TIMING_PASSES)
    assert measures.check_tail(guaranteed, w.TAIL) == w.TAIL
    # The next rung up would not have ten answers beyond it, or was measured unsteady.
    assert w.TAIL in (99.9, 99.0, 95.0)


def test_trimmed_mean_drops_only_the_worst() -> None:
    values = [1.0] * 19 + [1000.0]
    assert measures.trimmed_mean(values) == 1.0
    assert measures.trimmed_mean(values, worst=0.0) == pytest.approx(50.95)
    assert measures.trimmed_mean([7.0]) == 7.0  # never drops everything


def test_percentile_is_nearest_rank() -> None:
    values = [float(v) for v in range(1, 101)]
    assert measures.percentile(values, 50.0) == 50.0
    assert measures.percentile(values, 99.0) == 99.0
    assert measures.percentile(values, 99.9) == 100.0
    assert measures.percentile([3.0], 99.0) == 3.0


# -------------------------------------------------------------- reference


@pytest.mark.parametrize(
    "query",
    [
        CorrelatedQuery("count", "min", epsilon=99.0),
        CorrelatedQuery("count", "avg"),
        CorrelatedQuery("sum", "max", epsilon=0.5),
        CorrelatedQuery("count", "avg", window=50),
        CorrelatedQuery("count", "min", epsilon=9.0, window=50),
    ],
)
def test_reference_matches_exact_series(query: CorrelatedQuery) -> None:
    rng = np.random.default_rng(5)
    xs = rng.lognormal(3.0, 1.0, 400)
    ys = rng.lognormal(0.0, 0.5, 400)
    assert cross_check(query, xs, ys, 400) == []


def test_cross_check_reports_a_disagreement(monkeypatch) -> None:
    query = CorrelatedQuery("count", "avg")
    xs = np.arange(1.0, 11.0)
    assert exact_at(query, xs, xs, [10])[0] == 5.0  # 6..10 exceed the mean 5.5
    monkeypatch.setattr(reference, "exact_at", lambda *args: exact_at(*args) + 1.0)
    assert len(reference.cross_check(query, xs, xs, 10)) == 5  # capped at five messages


# ------------------------------------------- seeds and declared metrics


class SmallLandmark(workloads.LandmarkColumnar):
    PASSES = 2
    SEGMENTS = 2
    TUPLES = 6000
    answers_per_segment = -(-TUPLES // workloads.LandmarkColumnar.CHUNK)
    TAIL = 50.0  # 36 answers support no higher percentile


class SmallKeyed(workloads.KeyedZipf):
    PASSES = 2
    SEGMENTS = 2
    TUPLES = 8000
    BUDGET = 6000
    CHECKPOINTS = 4
    answers_per_segment = TUPLES


DETERMINISTIC = ("rel_error", "bound_hit_ratio", "bound_score", "ok_ratio", "state_bytes")


def _timed(workload_cls, seed: int) -> dict:
    workload = workload_cls(seed)
    outcome = run.Run()
    metrics = run.timed(workload, 0.0, outcome)
    assert outcome.failed == 0, outcome.reasons
    return metrics


@pytest.mark.parametrize("workload_cls", [SmallLandmark, SmallKeyed])
def test_same_seed_same_deterministic_metrics(workload_cls) -> None:
    first = _timed(workload_cls, 3)
    again = _timed(workload_cls, 3)
    other = _timed(workload_cls, 4)
    assert {k: first[k] for k in DETERMINISTIC} == {k: again[k] for k in DETERMINISTIC}
    # Scored on the fixed scoring passes, so another seed scores the same.
    assert {k: first[k] for k in DETERMINISTIC} == {k: other[k] for k in DETERMINISTIC}


def test_seed_reaches_the_timing_inputs_only() -> None:
    a, b, c = SmallKeyed(3), SmallKeyed(3), SmallKeyed(4)
    for x, y, z in zip(a.timing[0], b.timing[0], c.timing[0]):
        for name in ("keys", "xs", "ys"):
            assert np.array_equal(getattr(x, name), getattr(y, name))
            assert not np.array_equal(getattr(x, name), getattr(z, name))
    for x, z in zip(a.scoring[0], c.scoring[0]):
        assert np.array_equal(x.xs, z.xs)
    assert not np.array_equal(a.scoring[0][0].xs, a.timing[0][0].xs)


def test_end_to_end_metrics_match_benchmark_json() -> None:
    metrics = _timed(SmallLandmark, 1)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared


def test_traced_metrics_match_benchmark_json_and_answers_agree(tmp_path: Path) -> None:
    outcome = run.Run()
    metrics = run.traced(SmallKeyed(2), 0.0, outcome, span_dir=tmp_path)
    assert outcome.failed == 0, outcome.reasons  # includes bit-identical traced answers
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared
    assert metrics["keyed.bank.update.calls"][0] == SmallKeyed.TUPLES * SmallKeyed.SEGMENTS
    assert metrics["core.update_columns.calls"][0] == 0
    assert (tmp_path / "keyed-zipf-seed2.jsonl").stat().st_size > 0


def test_workload_names_match_benchmark_json() -> None:
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
