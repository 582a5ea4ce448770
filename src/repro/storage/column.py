"""Columnar vectors.

A :class:`Column` wraps a NumPy array plus a logical type tag.  String
columns are dictionary-encoded: ``data`` holds ``int32`` codes into a
``dictionary`` array of unique Python strings.  That makes predicates on
strings (equality, LIKE, IN) cheap — they are evaluated once per distinct
value on the dictionary and then mapped to rows through the codes — and it
makes string join keys behave like integers.

Columns optionally carry a ``valid`` boolean mask.  Base TPC-H data is
never null; validity masks appear only on the null-extended side of outer
joins.  ``valid is None`` means "all rows valid", which keeps the common
path allocation-free.
"""

from __future__ import annotations

import threading
import weakref
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import SchemaError
from .dates import date_to_days, days_to_date


class DType(str, Enum):
    """Logical column types supported by the engine."""

    INT64 = "int64"
    FLOAT64 = "float64"
    STRING = "string"
    DATE = "date"
    BOOL = "bool"


_PHYSICAL: dict[DType, type[np.generic]] = {
    DType.INT64: np.int64,
    DType.FLOAT64: np.float64,
    DType.STRING: np.int32,  # dictionary codes
    DType.DATE: np.int32,  # days since epoch
    DType.BOOL: np.bool_,
}


# id(dictionary) -> (weak reference to it, strictly_increasing's answer).
# The reference proves that an entry belongs to the live object holding
# that id, and its callback drops the entry once the dictionary is
# collected.  Readers take no lock: a stale or missing entry only costs
# a recomputation.
_INCREASING: dict[int, tuple[weakref.ref, bool]] = {}
_INCREASING_LOCK = threading.RLock()  # a callback may fire inside the lock


def _forget_increasing(key: int) -> Callable[[weakref.ref], None]:
    def forget(ref: weakref.ref) -> None:
        with _INCREASING_LOCK:
            entry = _INCREASING.get(key)
            if entry is not None and entry[0] is ref:
                del _INCREASING[key]

    return forget


def strictly_increasing(dictionary: np.ndarray) -> bool:
    """True when every dictionary entry is below the next in Python order.

    Codes are then ranks: code order is string order and no string has
    two codes.  :meth:`Column.from_strings`, :meth:`Column.from_pool` and
    :meth:`Column.concat` build such dictionaries; :meth:`Column.from_codes`
    keeps its pool's order, which need not be.

    The answer is remembered per dictionary object.  Dictionaries are
    immutable and shared by every column sliced or gathered from the same
    base column, so a long dictionary (``p_name``) is compared once, not
    once per sort or string predicate.
    """
    if len(dictionary) < 2:
        return True
    key = id(dictionary)
    entry = _INCREASING.get(key)
    if entry is not None and entry[0]() is dictionary:
        return entry[1]
    answer = bool((dictionary[:-1] < dictionary[1:]).all())
    with _INCREASING_LOCK:
        _INCREASING[key] = (weakref.ref(dictionary, _forget_increasing(key)), answer)
    return answer


class Column:
    """An immutable typed vector.

    Parameters
    ----------
    data:
        Physical values (codes for STRING, epoch-days for DATE).
    dtype:
        Logical type tag.
    dictionary:
        For STRING columns, the array of distinct values indexed by the
        codes in ``data``.
    valid:
        Optional validity mask; ``None`` means all rows are valid.
    """

    __slots__ = ("data", "dtype", "dictionary", "valid")

    def __init__(
        self,
        data: np.ndarray,
        dtype: DType,
        dictionary: np.ndarray | None = None,
        valid: np.ndarray | None = None,
    ) -> None:
        expected = _PHYSICAL[dtype]
        if data.dtype != expected:
            data = data.astype(expected)
        if dtype is DType.STRING and dictionary is None:
            raise SchemaError("STRING column requires a dictionary")
        if dtype is not DType.STRING and dictionary is not None:
            raise SchemaError(f"{dtype} column must not carry a dictionary")
        if valid is not None and valid.shape != data.shape:
            raise SchemaError("validity mask shape mismatch")
        self.data = data
        self.dtype = dtype
        self.dictionary = dictionary
        self.valid = valid

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_ints(values: Iterable[int] | np.ndarray) -> "Column":
        """Build an INT64 column from integers."""
        return Column(np.asarray(values, dtype=np.int64), DType.INT64)

    @staticmethod
    def from_floats(values: Iterable[float] | np.ndarray) -> "Column":
        """Build a FLOAT64 column from floats."""
        return Column(np.asarray(values, dtype=np.float64), DType.FLOAT64)

    @staticmethod
    def from_bools(values: Iterable[bool] | np.ndarray) -> "Column":
        """Build a BOOL column from booleans."""
        return Column(np.asarray(values, dtype=np.bool_), DType.BOOL)

    @staticmethod
    def from_strings(values: Sequence[str] | np.ndarray) -> "Column":
        """Build a dictionary-encoded STRING column from raw strings."""
        arr = np.asarray(values, dtype=object)
        dictionary, codes = np.unique(arr, return_inverse=True)
        return Column(
            codes.astype(np.int32), DType.STRING, dictionary=dictionary.astype(object)
        )

    @staticmethod
    def from_codes(codes: np.ndarray, dictionary: np.ndarray) -> "Column":
        """Build a STRING column from codes and a dictionary, both as given.

        Nothing is sorted, uniqued or dropped: ``dictionary`` becomes the
        column's dictionary in its own order, unused entries included.
        Use it when that exact dictionary is the intended encoding (the
        generators' comment and word pools, kept unsorted); use
        :meth:`from_pool` for the column :meth:`from_strings` would have
        built.
        """
        return Column(
            np.asarray(codes, dtype=np.int32),
            DType.STRING,
            dictionary=np.asarray(dictionary, dtype=object),
        )

    @staticmethod
    def from_pool(codes: np.ndarray, pool: Sequence[str] | np.ndarray) -> "Column":
        """The column ``from_strings(pool[codes])`` builds, without decoding.

        ``codes`` index into ``pool``, a small list of candidate values
        that may repeat and need not be sorted or all occur.  The result
        is byte-identical to uniquing the decoded rows: its dictionary is
        the values that occur, sorted, and its codes index into that.
        The cost is one ``bincount`` and one gather over the rows, where
        :meth:`from_strings` sorts an object array of every row.
        """
        values, slot = np.unique(np.asarray(pool, dtype=object), return_inverse=True)
        occurs = np.zeros(len(values), dtype=np.bool_)
        occurs[slot[np.bincount(codes, minlength=len(pool)) > 0]] = True
        remap = (np.cumsum(occurs) - 1).astype(np.int32)
        return Column(remap[slot][codes], DType.STRING, dictionary=values[occurs])

    @staticmethod
    def from_dates(values: Sequence[str] | np.ndarray) -> "Column":
        """Build a DATE column from ISO strings or pre-computed day counts."""
        if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
            return Column(values.astype(np.int32), DType.DATE)
        days = np.fromiter(
            (date_to_days(v) for v in values), dtype=np.int32, count=len(values)
        )
        return Column(days, DType.DATE)

    @staticmethod
    def from_days(days: np.ndarray) -> "Column":
        """Build a DATE column from an array of epoch-day integers."""
        return Column(np.asarray(days, dtype=np.int32), DType.DATE)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Column({self.dtype.value}, n={len(self)})"

    @property
    def is_string(self) -> bool:
        """True when this column is dictionary-encoded text."""
        return self.dtype is DType.STRING

    def validity(self) -> np.ndarray:
        """Return the validity mask, materializing all-true if absent."""
        if self.valid is None:
            return np.ones(len(self.data), dtype=np.bool_)
        return self.valid

    def null_count(self) -> int:
        """Number of null (invalid) rows."""
        if self.valid is None:
            return 0
        return int((~self.valid).sum())

    # ------------------------------------------------------------------
    # Value access
    # ------------------------------------------------------------------
    def to_values(self) -> np.ndarray:
        """Materialize logical values (decoded strings, ISO dates stay as
        day counts; use :meth:`to_pylist` for human-readable output)."""
        if self.dictionary is not None:
            return self.dictionary[self.data]
        return self.data

    def to_pylist(self) -> list:
        """Materialize as a Python list with ``None`` for nulls and ISO
        strings for dates (for tests, examples and pretty-printing)."""
        if self.dictionary is not None:
            values = [self.dictionary[code] for code in self.data]
        elif self.dtype is DType.DATE:
            values = [days_to_date(day) for day in self.data]
        else:
            values = self.data.tolist()
        if self.valid is not None:
            values = [v if ok else None for v, ok in zip(values, self.valid)]
        return values

    def value_at(self, row: int) -> object:
        """Logical value of a single row (``None`` when null)."""
        if self.valid is not None and not self.valid[row]:
            return None
        if self.dictionary is not None:
            return self.dictionary[self.data[row]]
        if self.dtype is DType.DATE:
            return days_to_date(self.data[row])
        return self.data[row].item()

    # ------------------------------------------------------------------
    # Transformations (all return new columns; columns are immutable)
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Column":
        """Gather rows by integer index."""
        valid = None if self.valid is None else self.valid[indices]
        return Column(self.data[indices], self.dtype, self.dictionary, valid)

    def filter(self, mask: np.ndarray) -> "Column":
        """Select rows where ``mask`` is true."""
        valid = None if self.valid is None else self.valid[mask]
        return Column(self.data[mask], self.dtype, self.dictionary, valid)

    def slice(self, start: int, stop: int) -> "Column":
        """Zero-copy row-range slice (NumPy views, no buffer copy).

        The partition kernels use this to evaluate predicates chunk by
        chunk; slicing shares memory with the parent column.
        """
        valid = None if self.valid is None else self.valid[start:stop]
        return Column(self.data[start:stop], self.dtype, self.dictionary, valid)

    def take_nullable(self, indices: np.ndarray) -> "Column":
        """Gather rows by index where ``-1`` produces a null row.

        Used by outer joins: unmatched probe rows carry index ``-1`` and
        must surface as nulls on the other side's columns.

        Null rows get a **canonical zero placeholder** in ``data``:
        logical contents never depend on the bytes under a null, but
        deterministic bytes make results byte-identical across
        execution paths that gather at different points (the lazy and
        eager executors), which the workload digest checks rely on.
        """
        if len(self.data) == 0:
            # Every index must be -1 (null): synthesize an all-null column.
            data = np.zeros(len(indices), dtype=self.data.dtype)
            dictionary = self.dictionary
            if dictionary is not None and len(dictionary) == 0:
                dictionary = np.asarray([""], dtype=object)
            return Column(
                data,
                self.dtype,
                dictionary,
                valid=np.zeros(len(indices), dtype=np.bool_),
            )
        safe = np.where(indices < 0, 0, indices)
        data = self.data[safe]
        valid = indices >= 0
        if self.valid is not None:
            valid = valid & self.valid[safe]
        if valid.all():
            return Column(data, self.dtype, self.dictionary, None)
        data[~valid] = 0  # canonical placeholder under nulls
        return Column(data, self.dtype, self.dictionary, valid)

    def concat(self, other: "Column") -> "Column":
        """Row-wise concatenation (the append path of table mutation).

        STRING columns merge dictionaries instead of decoding rows: the
        two dictionaries form one pool, ``other``'s codes shift past
        ``self``'s entries, and :meth:`from_pool` re-encodes.  The result
        is byte-identical to uniquing the decoded rows (sorted dictionary
        of the values that occur, null placeholders included), at the
        cost of integer work per row and a sort of the dictionaries only.
        """
        if self.dtype is not other.dtype:
            raise SchemaError(
                f"cannot concat {self.dtype} column with {other.dtype}"
            )
        valid: np.ndarray | None = None
        if self.valid is not None or other.valid is not None:
            valid = np.concatenate([self.validity(), other.validity()])
        if self.dictionary is not None and other.dictionary is not None:
            codes = np.concatenate(
                [self.data, other.data + np.int32(len(self.dictionary))]
            )
            pool = np.concatenate([self.dictionary, other.dictionary])
            merged = Column.from_pool(codes, pool)
            return Column(merged.data, self.dtype, merged.dictionary, valid)
        return Column(np.concatenate([self.data, other.data]), self.dtype, None, valid)

    def compact_dictionary(self) -> "Column":
        """Drop unused dictionary entries (after heavy filtering).

        Purely an optimization — logical contents are unchanged.
        """
        if self.dictionary is None or len(self.data) == 0:
            return self
        used, new_codes = np.unique(self.data, return_inverse=True)
        return Column(
            new_codes.astype(np.int32),
            DType.STRING,
            dictionary=self.dictionary[used],
            valid=self.valid,
        )

    def equals(self, other: "Column") -> bool:
        """Logical equality (decoded values and nulls), for tests."""
        if self.dtype is not other.dtype or len(self) != len(other):
            return False
        if self.null_count() != other.null_count():
            return False
        mine, theirs = self.to_values(), other.to_values()
        ok = self.validity() & other.validity()
        if not np.array_equal(self.validity(), other.validity()):
            return False
        if self.dtype is DType.FLOAT64:
            return bool(np.allclose(mine[ok], theirs[ok]))
        return bool(np.array_equal(mine[ok], theirs[ok]))
