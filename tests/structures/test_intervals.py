"""Tests for the interval-based sliding extrema tracker (paper Section 4.1.1)."""

from __future__ import annotations

import math
import pickle
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, StreamError
from repro.structures.intervals import IntervalExtremaTracker


class TestIntervalExtremaTracker:
    def test_tracks_min_within_first_interval(self):
        t = IntervalExtremaTracker(window=100, num_intervals=10, mode="min")
        for v in [5.0, 3.0, 8.0]:
            t.push(v)
        assert t.extremum() == 3.0

    def test_interval_length_ceil(self):
        t = IntervalExtremaTracker(window=10, num_intervals=3)
        assert t.interval_length == 4  # ceil(10/3)

    def test_extremum_before_push_raises(self):
        t = IntervalExtremaTracker(window=10, num_intervals=2)
        with pytest.raises(StreamError):
            t.extremum()
        with pytest.raises(StreamError):
            t.worst_local()

    def test_expired_minimum_is_eventually_forgotten(self):
        # Window 20, 4 intervals of 5: a deep minimum in the first interval
        # must disappear once its interval rotates out.
        t = IntervalExtremaTracker(window=20, num_intervals=4, mode="min")
        t.push(1.0)
        for _ in range(30):
            t.push(10.0)
        assert t.extremum() == 10.0

    def test_min_never_above_true_window_min(self):
        # Retained intervals are a superset of the window, so the tracked
        # minimum is a lower bound on the true window minimum.
        values = [7.0, 3.0, 9.0, 4.0, 8.0, 2.0, 6.0, 5.0, 1.0, 9.0] * 5
        window = 10
        t = IntervalExtremaTracker(window=window, num_intervals=5, mode="min")
        for i, v in enumerate(values):
            t.push(v)
            true_min = min(values[max(0, i - window + 1) : i + 1])
            assert t.extremum() <= true_min

    def test_max_mode_symmetry(self):
        t = IntervalExtremaTracker(window=10, num_intervals=2, mode="max")
        for v in [1.0, 9.0, 2.0]:
            t.push(v)
        assert t.extremum() == 9.0
        assert t.worst_local() <= 9.0

    def test_worst_local_bounds_extremum(self):
        t = IntervalExtremaTracker(window=12, num_intervals=4, mode="min")
        for v in [5.0, 1.0, 8.0, 9.0, 2.0, 7.0, 3.0, 4.0, 6.0, 5.5, 2.5, 1.5]:
            t.push(v)
        assert t.extremum() <= t.worst_local()

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            IntervalExtremaTracker(0, 1)
        with pytest.raises(ConfigurationError):
            IntervalExtremaTracker(10, 0)
        with pytest.raises(ConfigurationError):
            IntervalExtremaTracker(10, 11)
        with pytest.raises(ConfigurationError):
            IntervalExtremaTracker(10, 2, mode="avg")

    def test_state_is_bounded(self):
        t = IntervalExtremaTracker(window=1000, num_intervals=8, mode="min")
        for v in range(5000):
            t.push(float(v))
        assert len(t) <= 9  # 8 completed + 1 partial

    @given(
        window=st.integers(2, 30),
        values=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=150),
    )
    @settings(max_examples=80, deadline=None)
    def test_min_is_conservative_bound(self, window, values):
        num_intervals = max(1, window // 3)
        t = IntervalExtremaTracker(window=window, num_intervals=num_intervals, mode="min")
        for i, v in enumerate(values):
            t.push(v)
            true_min = min(values[max(0, i - window + 1) : i + 1])
            # Conservative: never above the true window min, and never below
            # the min over the retained super-window (at most num_intervals
            # completed intervals plus the current partial one).
            span = (num_intervals + 1) * t.interval_length
            retained = values[max(0, i - span + 1) : i + 1]
            assert min(retained) <= t.extremum() <= true_min


def _reference_folds(tracker: IntervalExtremaTracker) -> tuple[float, float]:
    """The left folds over every retained local extremum, oldest first."""
    values = list(tracker._locals)
    if tracker._current is not None:
        values.append(tracker._current)
    better = min if tracker.mode == "min" else max
    worse = max if tracker.mode == "min" else min
    best = worst = values[0]
    for v in values[1:]:
        best = better(best, v)
        worst = worse(worst, v)
    return best, worst


def _same_float(a: float, b: float) -> bool:
    """Equal value and equal sign, so ``0.0`` and ``-0.0`` differ."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


# Few distinct values (signed zeros among them) make ties the common case.
TIE_PRONE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
    st.floats(-1e6, 1e6, allow_nan=False),
)


class TestCachedFolds:
    @given(
        mode=st.sampled_from(["min", "max"]),
        window=st.integers(1, 40),
        divisor=st.integers(1, 12),
        values=st.lists(TIE_PRONE, min_size=1, max_size=200),
    )
    @settings(max_examples=150, deadline=None)
    def test_folds_equal_the_reference_fold_after_every_push(
        self, mode, window, divisor, values
    ):
        num_intervals = min(divisor, window)
        t = IntervalExtremaTracker(window=window, num_intervals=num_intervals, mode=mode)
        for v in values:
            t.push(v)
            best, worst = _reference_folds(t)
            assert _same_float(t.extremum(), best)
            assert _same_float(t.worst_local(), worst)

    def test_signed_zero_ties_keep_the_first(self):
        t = IntervalExtremaTracker(window=4, num_intervals=4, mode="min")
        for v in (0.0, -0.0, 0.0):  # one value per interval
            t.push(v)
        assert _same_float(t.extremum(), 0.0)
        assert _same_float(t.worst_local(), 0.0)
        t = IntervalExtremaTracker(window=4, num_intervals=4, mode="max")
        for v in (-0.0, 0.0):
            t.push(v)
        assert _same_float(t.extremum(), -0.0)
        assert _same_float(t.worst_local(), -0.0)
        # A settled 0.0 against an open interval holding -0.0.
        t = IntervalExtremaTracker(window=6, num_intervals=3, mode="min")
        for v in (0.0, 0.0, -0.0):
            t.push(v)
        assert _same_float(t.extremum(), 0.0)
        assert _same_float(t.worst_local(), 0.0)

    @pytest.mark.parametrize("mode", ["min", "max"])
    def test_pickle_round_trip_keeps_answers_and_drops_the_cache(self, mode):
        t = IntervalExtremaTracker(window=30, num_intervals=6, mode=mode)
        stream = [float((7 * i) % 23) for i in range(47)]
        for v in stream:
            t.push(v)
        blob = pickle.dumps(t, pickle.HIGHEST_PROTOCOL)
        assert b"_settled" not in blob
        restored = pickle.loads(blob)
        assert restored.extremum() == t.extremum()
        assert restored.worst_local() == t.worst_local()
        for v in (3.0, 40.0, -1.0) * 5:
            t.push(v)
            restored.push(v)
            assert _same_float(restored.extremum(), t.extremum())
            assert _same_float(restored.worst_local(), t.worst_local())

    def test_loads_a_state_dict_without_cached_folds(self):
        """Pickles written before the folds were cached still load."""
        t = IntervalExtremaTracker(window=12, num_intervals=4, mode="min")
        for v in (5.0, 1.0, 8.0, 9.0, 2.0, 7.0, 3.0, 4.0):
            t.push(v)
        old_state = {
            "_window": 12,
            "_mode": "min",
            "_interval_length": 3,
            "_max_intervals": 4,
            "_locals": deque([1.0, 2.0]),
            "_current": 3.0,
            "_current_count": 2,
            "_total_seen": 8,
        }
        old = IntervalExtremaTracker.__new__(IntervalExtremaTracker)
        old.__setstate__(old_state)
        assert old.extremum() == t.extremum() == 1.0
        assert old.worst_local() == t.worst_local() == 3.0
        old.push(0.5)
        assert old.extremum() == 0.5

    def test_install_refreshes_the_folds(self):
        t = IntervalExtremaTracker(window=6, num_intervals=3, mode="max")
        t._install([4.0, 9.0, 2.0], None, 0, 6)
        assert t.extremum() == 9.0
        assert t.worst_local() == 2.0
        t._install([], 5.0, 1, 7)
        assert t.extremum() == t.worst_local() == 5.0
