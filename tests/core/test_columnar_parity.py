"""Batch-vs-scalar golden parity for the columnar ingestion kernels.

``update_columns`` (and ``update_many_timed`` on the time-window
estimator) must be a float-for-float transcription of the scalar ``update`` loop:
same per-record outputs under ``collect="all"``, same final estimate and
internal state under ``collect="none"``, same exception (with
the same partial state) when a chunk holds a record the scalar path
would reject.  These tests pin that equivalence for all five estimator
families across batch sizes 1, 7 and 4096, through mid-batch
reallocations, non-finite records, and the stdlib-``array`` fallback
used when numpy is unavailable.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.landmark_avg
import repro.core.landmark_extrema
import repro.core.sliding_avg
import repro.core.sliding_extrema
import repro.streams.columns
from repro.core.engine import build_estimator
from repro.core.exact import ExactOracle
from repro.core.query import CorrelatedQuery
from repro.core.time_sliding import TimeSlidingEstimator
from repro.datasets.registry import load_dataset
from repro.exceptions import ConfigurationError, StreamError
from repro.streams.model import Record

SIZE = 1200
WINDOW = 100
BATCH_SIZES = (1, 7, 4096)

FAMILY_QUERIES = {
    "landmark_extrema": CorrelatedQuery("count", "min", epsilon=99.0),
    "landmark_avg": CorrelatedQuery("count", "avg"),
    "sliding_extrema": CorrelatedQuery("count", "min", epsilon=99.0, window=WINDOW),
    "sliding_avg": CorrelatedQuery("count", "avg", window=WINDOW),
}

FAMILY_MODULES = {
    "landmark_extrema": repro.core.landmark_extrema,
    "landmark_avg": repro.core.landmark_avg,
    "sliding_extrema": repro.core.sliding_extrema,
    "sliding_avg": repro.core.sliding_avg,
}


@pytest.fixture(scope="module")
def stream():
    return load_dataset("USAGE", size=SIZE)


@pytest.fixture(scope="module")
def columns(stream):
    xs = [r.x for r in stream]
    ys = [r.y for r in stream]
    return xs, ys


def _bits(value):
    """``value`` with every float spelled out by ``float.hex``, so an
    equality test tells +0.0 from -0.0 (and a NaN equals itself)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    return value


def _state_fingerprint(estimator) -> dict:
    """Every piece of kernel state the columnar path stages and writes
    back, floats compared bit for bit."""
    state: dict = {"estimate": estimator.estimate(), "obs": estimator.obs_state()}
    inner = getattr(estimator, "_inner", None)
    if inner is not None:
        state["edges"] = list(inner.edges)
        state["mass"] = inner.mass_columns()
    for name in ("_tail", "_left", "_right"):
        mass = getattr(estimator, name, None)
        if mass is not None:
            state[name] = tuple(mass)
    moments = getattr(estimator, "_moments", None)
    if moments is not None:
        state["moments"] = (
            moments._count, moments._mean, moments._m2, moments._min, moments._max
        )
    for name in ("_tracked", "_opposite"):
        tracker = getattr(estimator, name, None)
        if tracker is not None:
            state[name] = (
                list(tracker._locals),
                tracker._current,
                tracker._current_count,
                tracker._total_seen,
            )
    ring = getattr(estimator, "_ring", None)
    if ring is not None:
        state["ring"] = [(cell[0], cell[1]) for cell in ring]
    state["ssr"] = getattr(estimator, "_steps_since_rebuild", None)
    buffer = getattr(estimator, "_buffer", None)
    state["buffer"] = None if buffer is None else [tuple(r) for r in buffer]
    for name in ("_extremum", "_region"):
        state[name] = getattr(estimator, name, None)
    return _bits(state)


def _build(family):
    return build_estimator(FAMILY_QUERIES[family], "piecemeal-uniform", num_buckets=10)


def _scalar_outputs(family, stream):
    estimator = _build(family)
    return [estimator.update(r) for r in stream], estimator


@pytest.mark.parametrize("family", sorted(FAMILY_QUERIES))
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_collect_all_matches_scalar(family, batch_size, stream, columns):
    """Per-record outputs are bit-identical at every batch size."""
    xs, ys = columns
    expected, single = _scalar_outputs(family, stream)
    batched = _build(family)
    got: list[float] = []
    for i in range(0, len(xs), batch_size):
        got.extend(
            batched.update_columns(xs[i : i + batch_size], ys[i : i + batch_size])
        )
    assert got == expected
    assert _state_fingerprint(batched) == _state_fingerprint(single)


@pytest.mark.parametrize("family", sorted(FAMILY_QUERIES))
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("collect", ["none"])
def test_lean_collect_modes_match_scalar_state(
    family, batch_size, collect, stream, columns
):
    """collect='none' skips outputs but lands in the identical state."""
    xs, ys = columns
    expected, single = _scalar_outputs(family, stream)
    batched = _build(family)
    for i in range(0, len(xs), batch_size):
        out = batched.update_columns(
            xs[i : i + batch_size], ys[i : i + batch_size], collect=collect
        )
        assert out == []
    assert batched.estimate() == expected[-1]
    assert _state_fingerprint(batched) == _state_fingerprint(single)


@pytest.mark.parametrize("family", sorted(FAMILY_QUERIES))
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("collect", ["all", "none"])
def test_update_many_matches_update_columns(
    family, batch_size, collect, stream, columns
):
    """Both batch adapters run the one kernel loop: same outputs, same state."""
    xs, ys = columns
    by_records = _build(family)
    by_columns = _build(family)
    for i in range(0, len(xs), batch_size):
        got = by_records.update_many(stream[i : i + batch_size], collect=collect)
        want = by_columns.update_columns(
            xs[i : i + batch_size], ys[i : i + batch_size], collect=collect
        )
        assert got == want
    assert _state_fingerprint(by_records) == _state_fingerprint(by_columns)


@pytest.mark.parametrize("family", sorted(FAMILY_QUERIES))
def test_numpy_inputs_match_list_inputs(family, stream, columns):
    """float64 arrays in, Python-float state out — no numpy scalars leak."""
    xs, ys = columns
    expected, single = _scalar_outputs(family, stream)
    batched = _build(family)
    got = batched.update_columns(np.asarray(xs), np.asarray(ys))
    assert got == expected
    for edge in getattr(batched, "_inner").edges:
        assert type(edge) is float
    assert _state_fingerprint(batched) == _state_fingerprint(single)


@pytest.mark.parametrize("family", sorted(FAMILY_QUERIES))
def test_default_unit_weights(family, stream, columns):
    """``ys=None`` behaves exactly like a column of 1.0 weights."""
    xs, _ = columns
    single = _build(family)
    expected = [single.update(Record(x)) for x in xs[:400]]
    batched = _build(family)
    assert batched.update_columns(xs[:400]) == expected


@pytest.mark.parametrize("family", sorted(FAMILY_QUERIES))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_mid_chunk_matches_scalar(family, bad, stream, columns):
    """A non-finite record raises the scalar error with the scalar state."""
    xs, ys = columns
    bad_xs = xs[:500] + [bad] + xs[500:700]
    bad_ys = ys[:500] + [1.0] + ys[500:700]
    single = _build(family)
    single_exc = None
    try:
        for x, y in zip(bad_xs, bad_ys):
            single.update(Record(x, y))
    except StreamError as exc:
        single_exc = str(exc)
    assert single_exc is not None
    batched = _build(family)
    with pytest.raises(StreamError) as caught:
        batched.update_columns(bad_xs, bad_ys, collect="none")
    assert str(caught.value) == single_exc
    assert _state_fingerprint(batched) == _state_fingerprint(single)


@pytest.mark.parametrize("family", sorted(FAMILY_QUERIES))
def test_mid_batch_reallocation_parity(family, stream):
    """A regime shift inside one chunk reallocates exactly like the scalar path.

    The stream trebles its scale mid-chunk, which drags the focus target
    away from the fitted interval and forces reallocation (and, for the
    extrema families, a near-disjoint regime rebuild) while the kernel is
    deep inside a vectorised segment.
    """
    shifted = [Record(r.x, r.y) for r in stream[:400]]
    shifted += [Record(r.x * 3.0 + 50.0, r.y) for r in stream[400:800]]
    xs = [r.x for r in shifted]
    ys = [r.y for r in shifted]
    single = _build(family)
    expected = [single.update(r) for r in shifted]
    batched = _build(family)
    assert batched.update_columns(xs, ys) == expected
    assert _state_fingerprint(batched) == _state_fingerprint(single)


@pytest.mark.parametrize("family", sorted(FAMILY_QUERIES))
def test_array_module_fallback(family, stream, columns, monkeypatch):
    """Without numpy the same entry point runs the scalar loop unchanged."""
    xs, ys = columns
    monkeypatch.setattr(repro.streams.columns, "HAVE_NUMPY", False)
    # sliding_avg has no vectorised kernel, hence no HAVE_NUMPY gate to patch.
    monkeypatch.setattr(FAMILY_MODULES[family], "HAVE_NUMPY", False, raising=False)
    single = _build(family)
    expected = [single.update(r) for r in stream[:300]]
    batched = _build(family)
    assert batched.update_columns(xs[:300], ys[:300]) == expected
    assert _state_fingerprint(batched) == _state_fingerprint(single)


def test_mismatched_columns_rejected(columns):
    xs, ys = columns
    estimator = _build("landmark_extrema")
    with pytest.raises(ConfigurationError):
        estimator.update_columns(xs[:10], ys[:9])


def test_bad_collect_mode_did_you_mean():
    estimator = _build("landmark_extrema")
    for collect in ("lsat", "last"):
        with pytest.raises(ConfigurationError, match="choose one of all, none"):
            estimator.update_columns([1.0], [1.0], collect=collect)


def _last_on_update_many():
    estimator = _build("landmark_avg")
    return estimator, lambda: estimator.update_many([Record(1.0)], collect="last")


def _last_on_update_columns():
    estimator = _build("sliding_extrema")
    return estimator, lambda: estimator.update_columns([1.0], collect="last")


def _last_on_update_many_timed():
    estimator = TimeSlidingEstimator(TIMED_QUERY, duration=50.0, num_buckets=10)
    return estimator, lambda: estimator.update_many_timed(
        [(0.0, Record(1.0))], collect="last"
    )


def _last_on_batched_ingest_update_many():
    oracle = ExactOracle(FAMILY_QUERIES["landmark_avg"], [1.0])
    return oracle, lambda: oracle.update_many([Record(1.0)], collect="last")


def _last_on_batched_ingest_update_columns():
    oracle = ExactOracle(FAMILY_QUERIES["sliding_avg"], [1.0])
    return oracle, lambda: oracle.update_columns([1.0], collect="last")


@pytest.mark.parametrize(
    "entry",
    [
        _last_on_update_many,
        _last_on_update_columns,
        _last_on_update_many_timed,
        _last_on_batched_ingest_update_many,
        _last_on_batched_ingest_update_columns,
    ],
    ids=lambda entry: entry.__name__.removeprefix("_last_on_"),
)
def test_collect_last_rejected_before_ingesting(entry):
    """The removed ``"last"`` mode fails on every batch entry, state untouched."""
    estimator, call = entry()
    before = estimator.obs_state()
    with pytest.raises(ConfigurationError, match="choose one of all, none"):
        call()
    assert estimator.obs_state() == before


# ------------------------------------------------------------ long warm-ups

#: Queries whose warm-up outlasts the whole USAGE fixture: the region is so
#: narrow that new extrema keep purging the buffer before it reaches m.
LONG_WARMUP_QUERIES = {
    "max_sum": CorrelatedQuery("sum", "max", epsilon=0.5),
    "min_count": CorrelatedQuery("count", "min", epsilon=0.05),
}
LONG_BATCH_SIZES = (1, 7, 1024, 4096)


def _long_build(name):
    return build_estimator(LONG_WARMUP_QUERIES[name], "piecemeal-uniform", num_buckets=10)


@pytest.fixture(scope="module")
def long_streams(stream):
    """The fixture, then a continuation packed around the extremum.

    The fixture alone never fills the buffer; the continuation fills it
    (with a few further purges on the way) and then runs the steady
    state, new extrema included.
    """
    top = max(r.x for r in stream)
    low = min(r.x for r in stream)
    fracs = [(r.x / top, r.y) for r in stream]
    return {
        "max_sum": stream + [Record(top * (0.7 + 0.35 * f), y) for f, y in fracs],
        "min_count": stream + [Record(low * (0.98 + 0.1 * f), y) for f, y in fracs],
    }


def _warmup_end(name, records):
    """Index of the tuple whose scalar step builds the histogram."""
    estimator = _long_build(name)
    for i, r in enumerate(records):
        estimator.update(r)
        if estimator._buffer is None:
            return i
    raise AssertionError("the warm-up never ended")


def _feed(estimator, records, bounds, entry):
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = records[lo:hi]
        if entry == "columns":
            out = estimator.update_columns(
                [r.x for r in chunk], [r.y for r in chunk], collect="none"
            )
        elif entry == "records":
            out = estimator.update_many(chunk, collect="none")
        else:
            out = estimator.update_many([tuple(r) for r in chunk], collect="none")
        assert out == []


def _scalar_run(name, records):
    """Scalar reference: the final state, or the state at the raise."""
    estimator = _long_build(name)
    error = None
    try:
        for r in records:
            estimator.update(r)
    except StreamError as exc:
        error = str(exc)
    return estimator, error


ENTRIES = ("columns", "records", "tuples")


@pytest.mark.parametrize("name", sorted(LONG_WARMUP_QUERIES))
@pytest.mark.parametrize("batch_size", LONG_BATCH_SIZES)
@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("length", ["fixture", "continued"])
def test_long_warmup_matches_scalar(name, batch_size, entry, length, long_streams):
    """Chunks that purge, fill and leave the warm-up land in the scalar
    state; on the fixture alone they end still warming up."""
    records = long_streams[name]
    if length == "fixture":
        records = records[:SIZE]
    single, _ = _scalar_run(name, records)
    assert (single._buffer is not None) == (length == "fixture")
    batched = _long_build(name)
    _feed(batched, records, list(range(0, len(records), batch_size)) + [len(records)], entry)
    assert _state_fingerprint(batched) == _state_fingerprint(single)
    assert pickle.dumps(batched) == pickle.dumps(single)


@pytest.mark.parametrize("name", sorted(LONG_WARMUP_QUERIES))
@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("entry", ENTRIES)
def test_chunk_ending_at_the_build(name, offset, entry, long_streams):
    """A chunk ending on (or next to) the tuple that fills the buffer."""
    records = long_streams[name]
    cut = _warmup_end(name, records) + 1 + offset
    single, _ = _scalar_run(name, records)
    batched = _long_build(name)
    _feed(batched, records, [0, cut, len(records)], entry)
    assert pickle.dumps(batched) == pickle.dumps(single)


@pytest.mark.parametrize("name", sorted(LONG_WARMUP_QUERIES))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -3.0])
@pytest.mark.parametrize("entry", ENTRIES)
def test_bad_record_mid_warmup_matches_scalar(name, bad, entry, long_streams):
    """Non-finite and negative x mid-warm-up: same raise (or not), same state.

    A negative x is a refused new minimum for MIN, but for MAX it is an
    ordinary out-of-region tuple that the warm-up discards.
    """
    records = list(long_streams[name])
    records.insert(600, Record(bad, 1.0))
    single, error = _scalar_run(name, records)
    if bad == -3.0:
        assert (error is None) == (name == "max_sum")
    else:
        assert error is not None
    batched = _long_build(name)
    if error is None:
        _feed(batched, records, [0, 512, len(records)], entry)
    else:
        with pytest.raises(StreamError) as caught:
            _feed(batched, records, [0, 512, len(records)], entry)
        assert str(caught.value) == error
    assert _state_fingerprint(batched) == _state_fingerprint(single)
    assert pickle.dumps(batched) == pickle.dumps(single)


@given(
    xs=st.lists(st.integers(0, 24), min_size=1, max_size=120),
    independent=st.sampled_from(["min", "max"]),
    chunk=st.integers(1, 30),
)
@settings(max_examples=120, deadline=None)
def test_warmup_ties_on_region_edges(xs, independent, chunk):
    """Integer streams put tuples exactly on the extremum and on the far
    edge of the region (for MIN, 8 is 2 * 4; for MAX, 6 is 12 / 2)."""
    query = CorrelatedQuery("sum", independent, epsilon=1.0)
    records = [Record(float(x), float(i % 5)) for i, x in enumerate(xs)]
    single = build_estimator(query, "piecemeal-uniform", num_buckets=6)
    for r in records:
        single.update(r)
    batched = build_estimator(query, "piecemeal-uniform", num_buckets=6)
    for lo in range(0, len(records), chunk):
        part = records[lo : lo + chunk]
        batched.update_columns([r.x for r in part], [r.y for r in part], collect="none")
    assert pickle.dumps(batched) == pickle.dumps(single)


# ---------------------------------------------------- landmark-AVG Welford

_TIES = st.sampled_from([0.0, -0.0, 0.0, 1.0, 2.5])


@given(
    values=st.lists(st.one_of(_TIES, st.floats(0.0, 1e3)), min_size=1, max_size=150),
    mirror=st.booleans(),
    chunk=st.integers(1, 40),
)
@settings(max_examples=120, deadline=None)
def test_landmark_avg_moment_replay_keeps_signed_zeros(values, mirror, chunk):
    """The chunk replay of the running moments matches the scalar pushes,
    down to which of +0.0 and -0.0 a tied minimum or maximum keeps.

    Non-negative values tie the running minimum at zero; mirrored ones
    tie the running maximum there.
    """
    if mirror:
        values = [-x for x in values]
    single = _build("landmark_avg")
    batched = _build("landmark_avg")
    for lo in range(0, len(values), chunk):
        part = values[lo : lo + chunk]
        for x in part:
            single.update(Record(x))
        batched.update_columns(part, collect="none")
        want = single._moments
        got = batched._moments
        assert pickle.dumps(
            (got._count, got._mean, got._m2, got._min, got._max)
        ) == pickle.dumps((want._count, want._mean, want._m2, want._min, want._max))
        assert batched.estimate() == single.estimate()


@pytest.mark.parametrize(
    "family, mirror",
    [(family, False) for family in sorted(FAMILY_QUERIES)]
    + [("landmark_avg", True), ("sliding_avg", True)],
)
@pytest.mark.parametrize("batch_size", [7, 4096])
def test_signed_zero_ties_match_scalar(family, mirror, batch_size):
    """Zeros of both signs tie the running minimum (the maximum, mirrored)
    after warm-up; the fingerprint sees which zero each path kept."""
    values = [float(i % 7) for i in range(60)] + [-0.0, 3.0, 0.0, -0.0, 5.0] * 8
    if mirror:
        values = [-x for x in values]
    single = _build(family)
    for x in values:
        single.update(Record(x))
    batched = _build(family)
    for i in range(0, len(values), batch_size):
        batched.update_columns(values[i : i + batch_size], collect="none")
    assert _state_fingerprint(batched) == _state_fingerprint(single)


# ------------------------------------------------------------- time-sliding

TIMED_QUERY = CorrelatedQuery("count", "min", epsilon=99.0)


def _timed_stream(stream):
    times = [i * 0.5 for i in range(len(stream))]
    return times, stream


def test_time_sliding_update_many_timed_collect_modes(stream):
    times, records = _timed_stream(stream)
    single = TimeSlidingEstimator(TIMED_QUERY, duration=50.0, num_buckets=10)
    expected = [single.update(t, r) for t, r in zip(times, records)]
    timed = list(zip(times, records))
    for collect, want in (("all", expected), ("none", [])):
        batched = TimeSlidingEstimator(TIMED_QUERY, duration=50.0, num_buckets=10)
        assert batched.update_many_timed(timed, collect=collect) == want
        assert batched.estimate() == expected[-1]
        assert batched.obs_state() == single.obs_state()


def test_time_sliding_rejects_untimed_batches():
    estimator = TimeSlidingEstimator(TIMED_QUERY, duration=50.0, num_buckets=10)
    with pytest.raises(ConfigurationError, match="update_many_timed"):
        estimator.update_many([Record(1.0)])
    with pytest.raises(ConfigurationError, match="update_many_timed"):
        estimator.update_columns([1.0])
