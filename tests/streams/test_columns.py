"""Columnar conversions between records and (xs, ys) column pairs."""

from __future__ import annotations

from array import array

import pytest

from repro.exceptions import ConfigurationError
from repro.streams import columns
from repro.streams.columns import (
    as_columns,
    columns_to_records,
    records_to_columns,
)
from repro.streams.model import Record

RECORDS = [Record(1.5, 2.0), Record(-3.25, 1.0), Record(0.0, 7.5)]


class TestRoundTrip:
    def test_records_to_columns_and_back(self):
        xs, ys = records_to_columns(RECORDS)
        assert list(xs) == [1.5, -3.25, 0.0]
        assert list(ys) == [2.0, 1.0, 7.5]
        assert columns_to_records(xs, ys) == RECORDS

    def test_as_columns_defaults_y_to_one(self):
        xs, ys = as_columns([4.0, 5.0])
        assert list(ys) == [1.0, 1.0]
        assert len(xs) == 2

    def test_as_columns_rejects_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="mismatch"):
            as_columns([1.0, 2.0], [3.0])


class TestRecordsToColumns:
    def test_matches_per_attribute_reference_bit_for_bit(self):
        import numpy as np

        records = [Record(float(i) / 7.0, float(i) * 3.0) for i in range(50)]
        records += [Record(-0.0, 5e-324), Record(1e308, -1e-308), Record(3, 4)]
        xs, ys = records_to_columns(records)
        assert xs.dtype == ys.dtype == np.float64
        assert xs.flags.c_contiguous and ys.flags.c_contiguous
        assert xs.tobytes() == np.array([r.x for r in records], dtype=np.float64).tobytes()
        assert ys.tobytes() == np.array([r.y for r in records], dtype=np.float64).tobytes()

    def test_accepts_plain_pairs(self):
        xs, ys = records_to_columns([(1.5, 2.0), (-3.25, 1.0), (0.0, 7.5)])
        assert columns_to_records(xs, ys) == RECORDS

    def test_one_tuple_means_unit_weight(self):
        xs, ys = records_to_columns([(4.0,), Record(5.0, 2.0)])
        assert list(xs) == [4.0, 5.0] and list(ys) == [1.0, 2.0]

    @pytest.mark.parametrize(
        "batch",
        [[(1.0, 2.0, 3.0)], [(1.0,), (2.0, 3.0, 4.0)], [(1.0, 2.0), 5.0]],
        ids=["triple", "short-then-long", "scalar"],
    )
    def test_misaligned_input_raises(self, batch):
        with pytest.raises(ConfigurationError, match=r"\(x, y\) pairs"):
            records_to_columns(batch)

    def test_empty_batch(self):
        xs, ys = records_to_columns([])
        assert len(xs) == 0 and len(ys) == 0


class TestFallback:
    def test_fallback_round_trip(self, monkeypatch):
        monkeypatch.setattr(columns, "HAVE_NUMPY", False)
        xs, ys = records_to_columns(RECORDS)
        assert isinstance(xs, array) and isinstance(ys, array)
        assert columns_to_records(xs, ys) == RECORDS
