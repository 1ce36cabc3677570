"""Refusal paths of the time-sliced extrema tracker."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import StreamError
from repro.structures.time_intervals import TimeIntervalExtremaTracker


def _state(tracker: TimeIntervalExtremaTracker) -> tuple:
    return (list(tracker._slices), tracker._last_time)


@pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
def test_non_finite_time_is_refused_without_moving_state(time):
    t = TimeIntervalExtremaTracker(duration=10.0, num_intervals=5, mode="min")
    t.push(5.0, 3.0)
    before = _state(t)
    with pytest.raises(StreamError):
        t.push(time, 1.0)
    assert _state(t) == before
    assert t.extremum() == 3.0


def test_refused_nan_time_does_not_disable_the_order_check():
    t = TimeIntervalExtremaTracker(duration=10.0, num_intervals=5, mode="min")
    t.push(5.0, 3.0)
    with pytest.raises(StreamError):
        t.push(math.nan, 1.0)
    with pytest.raises(StreamError, match="non-decreasing"):
        t.push(1.0, 0.5)
    assert list(t._slices) == [(2, 3.0)]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_value_is_refused(value):
    t = TimeIntervalExtremaTracker(duration=10.0, num_intervals=5, mode="max")
    t.push(1.0, 2.0)
    before = _state(t)
    with pytest.raises(StreamError):
        t.push(2.0, value)
    assert _state(t) == before
    assert t.extremum() == 2.0


def test_first_push_refused_leaves_an_empty_tracker():
    t = TimeIntervalExtremaTracker(duration=10.0)
    with pytest.raises(StreamError):
        t.push(math.nan, 1.0)
    assert len(t) == 0
    assert t._last_time is None
    t.push(0.0, 4.0)
    assert t.extremum() == 4.0
