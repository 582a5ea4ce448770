"""Unit tests for epoch-day date handling."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage.dates import date_to_days, days_to_date, years_of


def test_epoch_is_zero():
    assert date_to_days("1970-01-01") == 0


def test_known_date():
    # 1992-01-01 is 8035 days after the epoch (22 years incl. 6 leap days).
    assert date_to_days("1992-01-01") == 8035


def test_roundtrip_fixed():
    for iso in ("1992-01-01", "1995-06-17", "1998-08-02", "2000-02-29"):
        assert days_to_date(date_to_days(iso)) == iso


@given(st.integers(min_value=0, max_value=30000))
def test_roundtrip_property(days):
    assert date_to_days(days_to_date(days)) == days


def test_ordering_matches_calendar():
    assert date_to_days("1994-01-01") < date_to_days("1994-01-02")
    assert date_to_days("1993-12-31") < date_to_days("1994-01-01")


def test_years_of_vectorized():
    days = np.array(
        [date_to_days("1992-01-01"), date_to_days("1995-06-17"),
         date_to_days("1998-12-31")],
        dtype=np.int64,
    )
    assert years_of(days).tolist() == [1992, 1995, 1998]


def test_years_of_boundaries():
    days = np.array(
        [date_to_days("1994-12-31"), date_to_days("1995-01-01")], dtype=np.int64
    )
    assert years_of(days).tolist() == [1994, 1995]


def test_bad_date_raises():
    with pytest.raises(ValueError):
        date_to_days("1994-13-01")
