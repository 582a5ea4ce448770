"""Date handling for the columnar store.

Dates are stored as ``int32`` days since the Unix epoch (1970-01-01),
which keeps every date column a plain integer NumPy array: comparisons,
joins and Bloom-filter hashing all reuse the integer fast paths.

Only the Gregorian calendar range needed by TPC-H (1992..1998) is
exercised, but the conversion below is exact for any year in
[1, 9999].
"""

from __future__ import annotations

import datetime as _dt

import numpy as np

_EPOCH = _dt.date(1970, 1, 1).toordinal()


def date_to_days(text: str) -> int:
    """Convert an ISO ``YYYY-MM-DD`` string to days since 1970-01-01."""
    year, month, day = (int(part) for part in text.split("-"))
    return _dt.date(year, month, day).toordinal() - _EPOCH


def days_to_date(days: int) -> str:
    """Convert days since 1970-01-01 back to an ISO date string."""
    return _dt.date.fromordinal(int(days) + _EPOCH).isoformat()


def years_of(days: np.ndarray) -> np.ndarray:
    """Vectorized extraction of the calendar year from day counts.

    Uses ``numpy.datetime64`` arithmetic, which is exact and fast.
    """
    dates = days.astype("datetime64[D]")
    return dates.astype("datetime64[Y]").astype(np.int64) + 1970
