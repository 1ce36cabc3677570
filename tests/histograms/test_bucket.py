"""Tests for the BucketArray primitive."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, HistogramError
from repro.histograms.bucket import ZERO_MASS, BucketArray, Mass, credit_accounts


class TestMass:
    def test_addition(self):
        assert Mass(1.0, 2.0) + Mass(3.0, 4.0) == Mass(4.0, 6.0)

    def test_scaled(self):
        assert Mass(2.0, 4.0).scaled(0.5) == Mass(1.0, 2.0)

    def test_clamped(self):
        assert Mass(-1.0, 3.0).clamped() == Mass(0.0, 3.0)

    def test_zero_constant(self):
        assert ZERO_MASS == Mass(0.0, 0.0)


class TestConstruction:
    def test_requires_two_edges(self):
        with pytest.raises(ConfigurationError):
            BucketArray([1.0])

    def test_requires_increasing_edges(self):
        with pytest.raises(ConfigurationError):
            BucketArray([1.0, 1.0])
        with pytest.raises(ConfigurationError):
            BucketArray([2.0, 1.0])

    def test_counts_length_checked(self):
        with pytest.raises(ConfigurationError):
            BucketArray([0.0, 1.0, 2.0], counts=[1.0])

    def test_initial_masses(self):
        h = BucketArray([0.0, 1.0, 2.0], counts=[3.0, 4.0], weights=[5.0, 6.0])
        assert h.total() == Mass(7.0, 11.0)


class TestAddLocate:
    def test_add_and_locate(self):
        h = BucketArray([0.0, 1.0, 2.0])
        h.add(0.5, 2.0)
        h.add(1.5)
        assert h.counts == [1.0, 1.0]
        assert h.weights == [2.0, 1.0]

    def test_boundaries_go_right(self):
        h = BucketArray([0.0, 1.0, 2.0])
        assert h.locate(1.0) == 1  # interior boundaries belong right

    def test_top_edge_goes_to_last_bucket(self):
        h = BucketArray([0.0, 1.0, 2.0])
        assert h.locate(2.0) == 1

    def test_outside_raises(self):
        h = BucketArray([0.0, 1.0])
        with pytest.raises(HistogramError):
            h.locate(-0.1)
        with pytest.raises(HistogramError):
            h.add(1.5)

    def test_remove_clamps(self):
        h = BucketArray([0.0, 1.0, 2.0])
        h.add(0.5)
        h.remove(-5.0)  # clamps into the first bucket
        assert h.counts == [0.0, 0.0]

    def test_contains(self):
        h = BucketArray([0.0, 2.0])
        assert 1.0 in h and 0.0 in h and 2.0 in h
        assert 2.1 not in h


class TestEstimation:
    def test_estimate_between_full_buckets(self):
        h = BucketArray([0.0, 1.0, 2.0], counts=[4.0, 6.0], weights=[8.0, 12.0])
        assert h.estimate_between(0.0, 2.0) == Mass(10.0, 20.0)

    def test_estimate_between_interpolates(self):
        h = BucketArray([0.0, 2.0], counts=[4.0], weights=[8.0])
        mass = h.estimate_between(0.0, 1.0)
        assert mass.count == pytest.approx(2.0)
        assert mass.weight == pytest.approx(4.0)

    def test_estimate_clips_to_range(self):
        h = BucketArray([0.0, 1.0], counts=[2.0], weights=[2.0])
        assert h.estimate_between(-5.0, 5.0) == Mass(2.0, 2.0)
        assert h.estimate_between(3.0, 5.0) == ZERO_MASS

    def test_estimate_leq_geq_partition_total(self):
        h = BucketArray([0.0, 1.0, 2.0], counts=[3.0, 5.0], weights=[3.0, 5.0])
        t = 1.3
        leq, geq = h.estimate_leq(t), h.estimate_geq(t)
        assert leq.count + geq.count == pytest.approx(8.0)

    def test_reversed_interval_raises(self):
        h = BucketArray([0.0, 1.0])
        with pytest.raises(HistogramError):
            h.estimate_between(1.0, 0.0)

    def test_bounds(self):
        h = BucketArray([0.0, 1.0, 2.0], counts=[3.0, 5.0], weights=[3.0, 5.0])
        lower = h.bound_leq(1.5, upper=False)
        upper = h.bound_leq(1.5, upper=True)
        interpolated = h.estimate_leq(1.5)
        assert lower.count <= interpolated.count <= upper.count
        assert lower == Mass(3.0, 3.0)
        assert upper == Mass(8.0, 8.0)

    def test_bounds_at_extremes(self):
        h = BucketArray([0.0, 1.0], counts=[2.0], weights=[2.0])
        assert h.bound_leq(-1.0, upper=True) == ZERO_MASS
        assert h.bound_leq(9.0, upper=False) == Mass(2.0, 2.0)


class TestStructuralEditing:
    def test_split_preserves_mass(self):
        h = BucketArray([0.0, 2.0], counts=[4.0], weights=[6.0])
        h.split_bucket(0)
        assert h.num_buckets == 2
        assert h.total() == Mass(4.0, 6.0)
        assert h.counts == [2.0, 2.0]

    def test_split_at_custom_point(self):
        h = BucketArray([0.0, 4.0], counts=[4.0], weights=[4.0])
        h.split_bucket(0, at=1.0)
        assert h.edges == [0.0, 1.0, 4.0]
        assert h.counts == [1.0, 3.0]

    def test_split_outside_raises(self):
        h = BucketArray([0.0, 1.0])
        with pytest.raises(HistogramError):
            h.split_bucket(0, at=1.5)

    def test_merge_preserves_mass(self):
        h = BucketArray([0.0, 1.0, 2.0], counts=[3.0, 4.0], weights=[1.0, 2.0])
        h.merge_buckets(0)
        assert h.num_buckets == 1
        assert h.total() == Mass(7.0, 3.0)

    def test_merge_last_raises(self):
        h = BucketArray([0.0, 1.0, 2.0])
        with pytest.raises(HistogramError):
            h.merge_buckets(1)

    def test_truncate_above_splits_straddler(self):
        h = BucketArray([0.0, 2.0, 4.0], counts=[2.0, 2.0], weights=[2.0, 2.0])
        dropped = h.truncate_above(3.0)
        assert h.high == 3.0
        assert dropped.count == pytest.approx(1.0)
        assert h.total().count == pytest.approx(3.0)

    def test_truncate_above_noop_beyond_range(self):
        h = BucketArray([0.0, 1.0], counts=[2.0], weights=[2.0])
        assert h.truncate_above(5.0) == ZERO_MASS

    def test_truncate_above_cannot_empty(self):
        h = BucketArray([0.0, 1.0])
        with pytest.raises(HistogramError):
            h.truncate_above(0.0)

    def test_truncate_below(self):
        h = BucketArray([0.0, 2.0, 4.0], counts=[2.0, 2.0], weights=[2.0, 2.0])
        dropped = h.truncate_below(1.0)
        assert h.low == 1.0
        assert dropped.count == pytest.approx(1.0)
        assert h.total().count == pytest.approx(3.0)

    def test_truncate_below_at_existing_edge(self):
        h = BucketArray([0.0, 1.0, 2.0], counts=[5.0, 7.0], weights=[5.0, 7.0])
        dropped = h.truncate_below(1.0)
        assert dropped == Mass(5.0, 5.0)
        assert h.edges == [1.0, 2.0]

    def test_extend_low_high(self):
        h = BucketArray([1.0, 2.0], counts=[3.0], weights=[3.0])
        h.extend_low(0.0)
        h.extend_high(5.0)
        assert h.edges == [0.0, 1.0, 2.0, 5.0]
        assert h.total() == Mass(3.0, 3.0)

    def test_extend_wrong_direction_raises(self):
        h = BucketArray([1.0, 2.0])
        with pytest.raises(HistogramError):
            h.extend_low(1.5)
        with pytest.raises(HistogramError):
            h.extend_high(1.5)

    def test_widest_and_heaviest(self):
        h = BucketArray([0.0, 1.0, 5.0], counts=[9.0, 2.0], weights=[9.0, 2.0])
        assert h.widest_bucket() == 1
        assert h.heaviest_bucket() == 0

    def test_copy_is_independent(self):
        h = BucketArray([0.0, 1.0], counts=[1.0], weights=[1.0])
        c = h.copy()
        c.add(0.5)
        assert h.total().count == 1.0
        assert c.total().count == 2.0


class TestMassConservationProperties:
    @given(
        xs=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=50),
        cut=st.floats(0.5, 9.5),
    )
    @settings(max_examples=80, deadline=None)
    def test_truncate_above_conserves_mass(self, xs, cut):
        h = BucketArray([0.0 + i for i in range(11)])
        for x in xs:
            h.add(x)
        before = h.total()
        dropped = h.truncate_above(cut)
        after = h.total()
        assert after.count + dropped.count == pytest.approx(before.count)
        assert after.weight + dropped.weight == pytest.approx(before.weight)

    @given(
        xs=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=50),
        index=st.integers(0, 7),
    )
    @settings(max_examples=80, deadline=None)
    def test_split_then_merge_roundtrips_mass(self, xs, index):
        h = BucketArray([float(i) for i in range(9)])
        for x in xs:
            h.add(x)
        before = h.total()
        h.split_bucket(index)
        h.merge_buckets(index)
        assert h.total().count == pytest.approx(before.count)
        assert h.total().weight == pytest.approx(before.weight)

    @given(xs=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_leq_matches_brute_force_at_edges(self, xs):
        edges = [0.0, 2.5, 5.0, 7.5, 10.0]
        h = BucketArray(edges)
        for x in xs:
            h.add(x)
        # At bucket edges, the interpolated estimate is exact w.r.t. bucket
        # contents (no partial bucket involved).
        for edge in edges:
            expected = sum(1 for x in xs if h.locate(x) < h.locate(edge)) if edge > 0 else 0
            counted = sum(
                h.counts[i] for i in range(h.num_buckets) if h.edges[i + 1] <= edge
            )
            assert h.estimate_leq(edge).count == pytest.approx(counted)


def _full_scan_between(array: BucketArray, lo: float, hi: float) -> Mass:
    """``estimate_between`` as a scan over every bucket, for comparison."""
    edges, counts, weights = array.edges, array.counts, array.weights
    lo = max(lo, edges[0])
    hi = min(hi, edges[-1])
    if hi <= lo:
        return ZERO_MASS
    count = 0.0
    weight = 0.0
    for i, (left, right) in enumerate(zip(edges, edges[1:])):
        overlap = min(hi, right) - max(lo, left)
        if overlap <= 0.0:
            continue
        fraction = overlap / (right - left)
        count += counts[i] * fraction
        weight += weights[i] * fraction
    return Mass(count, weight)


@st.composite
def _array_and_interval(draw):
    start = draw(st.floats(-1e3, 1e3))
    widths = draw(st.lists(st.floats(1e-3, 50.0), min_size=1, max_size=12))
    edges = [start]
    for width in widths:
        edges.append(edges[-1] + width)
    edges = sorted(set(edges))
    if len(edges) < 2:
        edges = [start, start + 1.0]
    k = len(edges) - 1
    masses = st.floats(-50.0, 1e4)
    counts = draw(st.lists(masses, min_size=k, max_size=k))
    weights = draw(st.lists(masses, min_size=k, max_size=k))
    # Interval ends: on an edge, inside the range, or beyond either end.
    point = st.one_of(
        st.sampled_from(edges),
        st.floats(edges[0], edges[-1]),
        st.floats(edges[0] - 100.0, edges[-1] + 100.0),
        st.sampled_from([float("-inf"), float("inf")]),
    )
    a, b = draw(point), draw(point)
    if draw(st.booleans()):
        b = a  # degenerate hi == lo
    return BucketArray(edges, counts, weights), min(a, b), max(a, b)


class TestOverlapOnlyEstimate:
    @given(case=_array_and_interval())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_full_scan_bit_for_bit(self, case):
        array, lo, hi = case
        got = array.estimate_between(lo, hi)
        want = _full_scan_between(array, lo, hi)
        assert (got.count.hex(), got.weight.hex()) == (want.count.hex(), want.weight.hex())

    def test_edge_aligned_interval_reads_only_covered_buckets(self):
        array = BucketArray([0.0, 1.0, 2.0, 3.0], [1.0, 10.0, 100.0], [2.0, 20.0, 200.0])
        assert array.estimate_between(1.0, 2.0) == Mass(10.0, 20.0)
        assert array.estimate_between(2.0, 2.0) == ZERO_MASS
        assert array.estimate_between(-5.0, 0.0) == ZERO_MASS
        assert array.estimate_between(3.0, 9.0) == ZERO_MASS
        assert array.estimate_between(0.5, 2.5) == Mass(0.5 + 10.0 + 50.0, 1.0 + 20.0 + 100.0)


class TestCreditAccounts:
    @given(
        start=st.lists(
            st.tuples(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 2.5, -1e6])),
            min_size=1,
            max_size=5,
        ),
        credits=st.lists(
            st.tuples(
                st.integers(0, 4),
                st.one_of(st.floats(-1e12, 1e12), st.sampled_from([0.0, -0.0, 1e-9])),
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_sequential_scalar_credit(self, start, credits):
        credits = [(i % len(start), y) for i, y in credits]
        want = [Mass(*mass) for mass in start]
        for i, y in credits:
            want[i] = Mass(want[i].count + 1.0, want[i].weight + y)
        counts, weights = credit_accounts(
            [c for c, _ in start],
            [w for _, w in start],
            np.asarray([i for i, _ in credits], dtype=np.int64),
            np.asarray([y for _, y in credits], dtype=np.float64),
        )
        assert [(c.hex(), w.hex()) for c, w in zip(counts, weights)] == [
            (m.count.hex(), m.weight.hex()) for m in want
        ]

    def test_seeded_with_the_current_value(self):
        # 0.0 + -0.0 is 0.0; an account left alone keeps its -0.0.
        counts, weights = credit_accounts(
            [0.0, 0.0], [0.0, -0.0], np.asarray([0]), np.asarray([-0.0])
        )
        assert [w.hex() for w in weights] == ["0x0.0p+0", "-0x0.0p+0"]
        assert counts == [1.0, 0.0]
        assert all(type(v) is float for v in counts + weights)
