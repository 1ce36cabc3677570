"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload landmark-columnar --seed 1 --seconds 10 --trace 0

``--trace 0`` plays the scoring passes, then timing passes until
``--seconds`` have passed, with no instrumentation, and reports the
end-to-end metrics.  ``--trace 1`` repeats the first timing pass untraced
for half that time, then once with spans recorded around the library's
public functions, checks that both gave bit-identical answers, and
reports the per-layer metrics.  The last line of standard output is the
result object; a human-readable summary goes to standard error.  The
exit code is non-zero when any answer failed a check.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import traceback
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import measures  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: Where traced runs write their spans.
SPAN_DIR = ROOT / ".perfbench_out"


class Run:
    """Counts the answers a run attempted and the ones that failed, with reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        self.reasons.append(reason)

    def check_pass(
        self, result: workloads.PassResult, earlier: workloads.PassResult | None
    ) -> None:
        """Count a pass's answers; fail non-finite ones and any drift from ``earlier``."""
        self.attempted += len(result.latencies)
        answers = np.frombuffer(result.answers, dtype=float)
        bad = int(np.count_nonzero(~np.isfinite(answers)))
        if bad:
            self.fail(f"{bad} non-finite answers", bad)
        if earlier is not None and result.answers.tobytes() != earlier.answers.tobytes():
            self.fail("a repeated pass returned different answers")


def one_pass(
    workload: workloads.Workload,
    segments: list,
    setup_repeats: int = 0,
    evaluate: bool = False,
    counts: dict | None = None,
) -> tuple[list[float], workloads.PassResult, list[workloads.Evaluation]]:
    """Feed each segment through fresh summaries.

    Returns the set-up seconds measured (each segment's own set-up and
    ``setup_repeats`` discarded ones before it), the pass's merged result,
    and (with ``evaluate``) each segment's evaluation.  ``counts``, when
    given, collects each segment's per-layer counts.  A calibration before
    each segment sets the pass's ``scale``; every time here is raw.
    """
    setups: list[float] = []
    calibrations: list[float] = []
    merged = workloads.PassResult(0, 0.0, array("d"), array("d"))
    evaluations = []
    for segment in segments:
        calibrations.append(measures.calibration_s())
        for _ in range(setup_repeats):
            start = time.perf_counter()
            state = workload.setup()
            setups.append(time.perf_counter() - start)
            workload.close(state)
        gc.collect()
        start = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - start)
        try:
            result = workload.run(state, segment)
            if evaluate:
                evaluations.append(workload.evaluate(state, segment, result))
            if counts is not None:
                for name, value in workload.counts(state, result).items():
                    counts.setdefault(name, []).append(value)
        finally:
            workload.close(state)
        merged.tuples += result.tuples
        merged.wall_s += result.wall_s
        merged.latencies.extend(result.latencies)
        merged.answers.extend(result.answers)
    merged.scale = measures.CALIBRATION_REFERENCE_S / measures.mean(calibrations)
    return setups, merged, evaluations


def timed(workload: workloads.Workload, seconds: float, run: Run) -> dict[str, tuple[float, str]]:
    """Each scoring pass once, then timing passes until ``seconds``; the end-to-end metrics.

    A timing pass played again must return exactly what it returned the
    first time.
    """
    deadline = time.perf_counter() + seconds
    setups: list[float] = []
    passes: list[workloads.PassResult] = []
    evaluations: list[workloads.Evaluation] = []

    def play(segments: list, evaluate: bool) -> workloads.PassResult:
        pass_setups, result, evaluated = one_pass(
            workload, segments, setup_repeats=workload.setup_repeats, evaluate=evaluate
        )
        setups.extend(s * result.scale for s in pass_setups)
        evaluations.extend(evaluated)
        passes.append(result)
        return result

    for segments in workload.scoring:
        run.check_pass(play(segments, evaluate=True), None)
    timing: list[workloads.PassResult] = []
    while len(timing) < len(workload.timing) or time.perf_counter() < deadline:
        k = len(timing) % len(workload.timing)
        result = play(workload.timing[k], evaluate=False)
        run.check_pass(result, timing[k] if len(timing) >= len(workload.timing) else None)
        timing.append(result)
    for evaluation in evaluations:
        for reason in evaluation.failures:
            run.fail(reason)

    latencies = [v * p.scale for p in passes for v in p.latencies]
    rates = [p.tuples / (p.wall_s * p.scale) for p in passes]
    # Checked against the answers every run is sure to time, however fast it runs.
    guaranteed = workload.answers_per_pass * (workload.PASSES + workload.TIMING_PASSES)
    tail_p = measures.check_tail(guaranteed, workload.TAIL)
    print(
        f"{workload.name}: {len(passes)} passes of {workload.SEGMENTS} segments, "
        f"tail = p{tail_p:g} of {len(latencies)} answers, {len(setups)} set-ups, "
        f"pass rates {', '.join(f'{r:.4g}' for r in rates)} tuples/s at reference speed, "
        f"calibration {', '.join(f'{1 / p.scale:.3g}' for p in passes)}x reference",
        file=sys.stderr,
    )
    intervals = [i for ev in evaluations for i in ev.intervals]
    hits = sum(measures.covers(lo, hi, x) for lo, hi, x in intervals)
    return {
        "throughput_tps": (measures.median(rates), "tuples/s"),
        "answer_p50_us": (measures.percentile(latencies, 50.0) * 1e6, "us"),
        "answer_tail_us": (measures.percentile(latencies, tail_p) * 1e6, "us"),
        "rel_error": (
            measures.trimmed_mean([e for ev in evaluations for e in ev.rel_errors]),
            "ratio",
        ),
        "bound_hit_ratio": (hits / len(intervals), "ratio"),
        "bound_score": (
            measures.trimmed_mean([measures.interval_score(*i) for i in intervals]),
            "ratio",
        ),
        "ok_ratio": (1.0 - run.failed / run.attempted, "ratio"),
        "setup_s": (measures.median(setups), "s"),
        "state_bytes": (measures.mean([ev.state_bytes for ev in evaluations]), "bytes"),
    }


def traced(
    workload: workloads.Workload, seconds: float, run: Run, span_dir: Path = SPAN_DIR
) -> dict[str, tuple[float, str]]:
    """Untraced passes, then one traced pass; the per-layer metrics."""
    deadline = time.perf_counter() + seconds / 2
    walls: list[float] = []
    first = None
    while first is None or time.perf_counter() < deadline:
        setups, result, _ = one_pass(workload, workload.timing[0])
        walls.append((sum(setups) + result.wall_s) * result.scale)
        run.check_pass(result, first)
        if first is None:
            first = result

    recorder = spans.SpanRecorder()
    segment_counts: dict[str, list[float]] = {}
    with spans.patched(recorder):
        setups, result, _ = recorder.call(
            "bench", lambda: one_pass(workload, workload.timing[0], counts=segment_counts)
        )
    run.check_pass(result, first)  # the traced answers must be bit-identical
    recorder.write(span_dir / f"{workload.name}-seed{workload.seed}.jsonl")
    scale = result.scale
    wall = (sum(setups) + result.wall_s) * scale  # measured as the untraced walls are

    metrics: dict[str, tuple[float, str]] = {}
    for name in spans.LAYERS:
        metrics[f"{name}.calls"] = (float(recorder.calls(name)), "count")
        metrics[f"{name}.self_s"] = (recorder.self_s(name) * scale, "s")
    reallocations = recorder.calls("histograms.piecemeal_reallocate") + recorder.calls(
        "histograms.wholesale_reallocate"
    )
    metrics["histograms.realloc_per_ktuple"] = (reallocations * 1000 / result.tuples, "1/ktuple")
    bank_updates = recorder.calls("keyed.bank.update")
    # Promoted keys' records are the only ones a bank hands to an estimator's update().
    metrics["keyed.promoted_share"] = (
        recorder.calls("core.update") / bank_updates if bank_updates else 0.0,
        "ratio",
    )
    for name, unit, combine in workloads.COUNTS:
        values = segment_counts.get(name, [0.0])
        total = sum(values) if combine == "sum" else measures.mean(values)
        metrics[name] = (float(total), unit)
    rate, rel = workload.baseline() if isinstance(workload, workloads.ShardedZipf) else (0.0, 0.0)
    metrics["parallel.baseline.throughput_tps"] = (rate, "tuples/s")
    metrics["parallel.baseline.rel_error"] = (rel, "ratio")
    metrics["trace.overhead"] = (wall / measures.median(walls) - 1.0, "ratio")
    layer_s = sum(recorder.self_s(name) for name in spans.LAYERS) * scale
    metrics["trace.coverage"] = (layer_s / wall, "ratio")
    metrics["bench.self_s"] = (recorder.self_s("bench") * scale, "s")
    metrics["bench.calibration_s"] = (measures.CALIBRATION_REFERENCE_S / scale, "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = Run()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed % 2**32)
        gc.collect()
        gc.freeze()  # the generated inputs are never garbage; keep them out of collections
        for reason in workload.reference_failures:
            run.fail(reason)
        measure = traced if args.trace else timed
        metrics = measure(workload, args.seconds, run)
    except Exception:
        traceback.print_exc()
        run.fail("exception")
        metrics = {}
    for reason in run.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:>16.6g} {unit}", file=sys.stderr)
    result = {
        "correct": not run.failed,
        "attempted": max(run.attempted, run.failed, 1),
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 1 if run.failed else 0


if __name__ == "__main__":
    sys.exit(main())
