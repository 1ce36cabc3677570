"""Chunk-by-chunk parity of the landmark-AVG column kernel with the scalar loop.

``LandmarkAvgEstimator.update_columns`` replays only the running mean in
Python, derives the rest of the moment trace with numpy, and credits each
segment between reallocation triggers with one account scatter.  After
every chunk its pickled state must equal that of an estimator fed the
same records one ``update`` at a time.  The streams here are built to put
triggers where the kernel cuts its segments: back to back, at the first
and the last position of a chunk, and on or next to a non-finite record.
"""

from __future__ import annotations

import itertools
import math
import pickle
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.engine import build_estimator
from repro.core.query import CorrelatedQuery
from repro.exceptions import StreamError
from repro.streams.model import Record

QUERY = CorrelatedQuery("count", "avg")
CHUNK_SIZES = (0, 1, 7, 1024, 4096)
#: Extra x values mixed into a stream: signed zeros tie the running
#: minimum (the maximum, mirrored), and the rest jump far enough to move
#: the focus target.
SPECIALS = (0.0, -0.0, 250.0, 1e3)


def _build():
    return build_estimator(QUERY, "piecemeal-uniform", num_buckets=10)


def _stream(
    seed: int, length: int, drift: float, special_rate: float, sign: float = 1.0
) -> list[float]:
    """A noisy non-negative ramp (non-positive for ``sign=-1``): the
    larger ``drift``, the denser the triggers."""
    rng = random.Random(seed)
    xs = []
    for i in range(length):
        if rng.random() < special_rate:
            x = rng.choice(SPECIALS)
        else:
            x = drift * i + abs(rng.gauss(0.0, 10.0))
        xs.append(sign * x)
    return xs


def _weights(seed: int, length: int) -> list[float]:
    rng = random.Random(seed + 1)
    return [rng.choice((1.0, 2.5, 0.0, -0.0, -3.0)) for _ in range(length)]


def _triggers(xs, ys) -> list[int]:
    """Indices of the records whose scalar step reallocates."""
    scout = _build()
    hits: list[int] = []
    reallocate = scout._reallocate

    def counting(lo, hi):
        hits.append(index)
        return reallocate(lo, hi)

    scout._reallocate = counting
    for index, (x, y) in enumerate(zip(xs, ys)):
        scout.update(Record(x, y))
    return hits


def _cuts(length: int, sizes, triggers, placement) -> list[int]:
    """Chunk ends: ``sizes`` cycled (a size of 0 is an empty chunk), plus
    a cut just before (trigger at position 0) or just after (trigger at
    the last position) each trigger, as ``placement`` picks per trigger."""
    ends = []
    pos = 0
    for size in itertools.cycle(sizes):
        if pos >= length:
            break
        pos = min(pos + size, length)
        ends.append(pos)
    for trigger, where in zip(triggers, placement):
        if where != "none":
            ends.append(trigger + (where == "last"))
    return sorted(ends)


def _chunks(xs, ys, ends):
    start = 0
    for end in [*ends, len(xs)]:
        yield np.asarray(xs[start:end]), np.asarray(ys[start:end])
        start = end


def _run_in_chunks(xs, ys, ends):
    """Feed both estimators chunk by chunk; compare pickles after each."""
    single = _build()
    batched = _build()
    fed = 0
    for cx, cy in _chunks(xs, ys, ends):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            batched.update_columns(cx, cy, collect="none")
        for x, y in zip(cx.tolist(), cy.tolist()):
            single.update(Record(x, y))
        fed += len(cx)
        assert pickle.dumps(batched) == pickle.dumps(single), f"after {fed} records"


@given(
    seed=st.integers(0, 2**16),
    length=st.integers(11, 600),
    drift=st.sampled_from([0.0, 0.05, 1.0, 20.0]),
    special_rate=st.sampled_from([0.0, 0.05, 0.3]),
    sign=st.sampled_from([1.0, -1.0]),
    sizes=st.lists(st.sampled_from(CHUNK_SIZES), min_size=1, max_size=6).filter(any),
    placement=st.lists(st.sampled_from(["first", "last", "none"]), max_size=40),
)
@settings(max_examples=150, deadline=None)
@example(
    seed=1, length=600, drift=20.0, special_rate=0.0, sign=1.0, sizes=[7], placement=["first"] * 40
)
@example(
    seed=2, length=600, drift=20.0, special_rate=0.0, sign=1.0, sizes=[7], placement=["last"] * 40
)
@example(
    seed=3, length=400, drift=0.0, special_rate=0.3, sign=1.0, sizes=[1, 0, 7], placement=[]
)
@example(
    seed=3, length=400, drift=0.0, special_rate=0.3, sign=-1.0, sizes=[4096], placement=[]
)
def test_chunked_columns_match_scalar_pickles(
    seed, length, drift, special_rate, sign, sizes, placement
):
    xs = _stream(seed, length, drift, special_rate, sign)
    ys = _weights(seed, length)
    ends = _cuts(length, sizes, _triggers(xs, ys), placement)
    _run_in_chunks(xs, ys, ends)


@pytest.mark.parametrize("size", [size for size in CHUNK_SIZES if size])
@pytest.mark.parametrize("drift", [0.05, 20.0])
def test_long_streams_match_scalar_pickles(size, drift):
    """Several 1024- and 4096-record chunks, through dense and sparse triggers."""
    xs = _stream(7, 9000 if size >= 1024 else 700, drift, 0.01)
    ys = _weights(7, len(xs))
    _run_in_chunks(xs, ys, [size])


def test_ramp_triggers_back_to_back():
    """The dense streams above really do put triggers on consecutive records."""
    xs = _stream(1, 600, 20.0, 0.0)
    triggers = _triggers(xs, [1.0] * len(xs))
    assert any(b == a + 1 for a, b in zip(triggers, triggers[1:]))
    assert len(triggers) > 100


def _scalar_until_refused(xs, ys):
    single = _build()
    with pytest.raises(StreamError) as caught:
        for x, y in zip(xs, ys):
            single.update(Record(x, y))
    return single, str(caught.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", ["x", "y"])
@pytest.mark.parametrize("offset", [0, 1])
@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_nonfinite_on_or_after_a_trigger(bad, column, offset, chunk):
    """A non-finite record on a trigger, or just after one, raises the scalar
    error with the scalar partial state and no RuntimeWarning."""
    xs = _stream(5, 900, 1.0, 0.05)
    ys = _weights(5, len(xs))
    triggers = _triggers(xs, ys)
    at = [t for t in triggers if t > 300][0] + offset
    if column == "x":
        xs[at] = bad
    else:
        ys[at] = bad
    single, message = _scalar_until_refused(xs, ys)
    batched = _build()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(StreamError) as caught:
            for start in range(0, len(xs), chunk):
                batched.update_columns(
                    np.asarray(xs[start : start + chunk]),
                    np.asarray(ys[start : start + chunk]),
                    collect="none",
                )
    assert str(caught.value) == message
    assert pickle.dumps(batched) == pickle.dumps(single)
