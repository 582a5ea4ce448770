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

Appends (:meth:`Column.concat`) write into a buffer with headroom that
the result views read-only as ``buffer[:n]``.  The column viewing every
committed row of its buffer is the buffer's *tip*; an append to the tip
writes only the delta, past every row an older column can see.  Any
other append copies into a new buffer.
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


#: A new append buffer holds this many times the rows it starts with,
#: so a stream of appends copies a column once per 25 % of growth.
_GROWTH = 1.25
#: Guards every buffer's committed length: claiming the tip and moving
#: its length past the delta is one step.
_CLAIM_LOCK = threading.Lock()


class _Buffer:
    """Storage shared by the columns an append chain produces.

    ``data`` (and ``valid``, when the chain carries a mask) hold
    ``length`` committed rows and headroom past them.  Every column of
    the buffer views a prefix ``[:n]``; the one with ``n == length`` is
    the tip.  Rows below ``length`` are never written again, so a
    column pinned by a reader never sees a later append.

    For a STRING chain, ``dictionary`` is the one dictionary every
    column of the buffer holds, and the codes are *exact* for it:
    sorted, and every entry is used by the first ``n`` rows of any
    column of the buffer (an append in place only adds rows that use
    existing entries).
    """

    __slots__ = ("data", "valid", "dictionary", "length")

    def __init__(
        self,
        rows: int,
        physical: np.dtype,
        nullable: bool,
        dictionary: np.ndarray | None,
    ) -> None:
        capacity = int(rows * _GROWTH) + 1
        self.data = np.empty(capacity, dtype=physical)
        self.valid = np.empty(capacity, dtype=np.bool_) if nullable else None
        self.dictionary = dictionary
        self.length = rows

    def claim(self, start: int, rows: int) -> bool:
        """Take ``[start, start + rows)`` when ``start`` is the committed
        length and the rows fit; the length then moves past them."""
        with _CLAIM_LOCK:
            if self.length != start or start + rows > len(self.data):
                return False
            self.length = start + rows
            return True

    def write(self, start: int, data: np.ndarray, valid: np.ndarray | None) -> None:
        """Fill rows ``[start, start + len(data))`` (all valid when
        ``valid`` is None)."""
        stop = start + len(data)
        self.data[start:stop] = data
        if self.valid is not None:
            self.valid[start:stop] = True if valid is None else valid

    def column(self, rows: int, dtype: DType) -> "Column":
        """The read-only column of the first ``rows`` rows."""
        data = self.data[:rows]
        data.flags.writeable = False
        valid = None
        if self.valid is not None:
            valid = self.valid[:rows]
            valid.flags.writeable = False
        column = Column(data, dtype, self.dictionary, valid)
        column._buffer = self
        return column


def _encode_pool(
    pool: Sequence[str] | np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(lut, dictionary)`` for codes into ``pool`` whose slot counts
    are ``counts``: the dictionary is the values of the used slots,
    sorted and unique, and ``lut`` maps each slot to its code there."""
    values, slot = np.unique(np.asarray(pool, dtype=object), return_inverse=True)
    occurs = np.zeros(len(values), dtype=np.bool_)
    occurs[slot[counts > 0]] = True
    remap = (np.cumsum(occurs) - 1).astype(np.int32)
    return remap[slot], values[occurs]


def concat_bytes(before: Column, after: Column) -> int:
    """Bytes ``before.concat(delta)`` wrote into buffers to make ``after``:
    the delta's rows when it was appended in place at ``before``'s tip,
    every row of ``after`` when the append copied or merged."""
    written = _nbytes(after)
    if after._buffer is not None and after._buffer is before._buffer:
        written -= _nbytes(before)
    return written


def _nbytes(column: Column) -> int:
    return column.data.nbytes + (0 if column.valid is None else column.valid.nbytes)


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

    # ``_buffer`` is the append buffer this column views, set only on
    # :meth:`concat` results (see :class:`_Buffer`).
    __slots__ = ("data", "dtype", "dictionary", "valid", "_buffer")

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
        self._buffer: _Buffer | None = None

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
        lut, dictionary = _encode_pool(pool, np.bincount(codes, minlength=len(pool)))
        return Column(lut[codes], DType.STRING, dictionary=dictionary)

    @staticmethod
    def from_dates(values: Sequence[str] | np.ndarray) -> "Column":
        """Build a DATE column from ISO strings or pre-computed day counts.

        Each distinct string is parsed once, in order of first
        appearance, so a malformed one raises as it would row by row."""
        if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
            return Column(values.astype(np.int32), DType.DATE)
        parsed = {text: date_to_days(text) for text in dict.fromkeys(values)}
        days = np.fromiter(
            map(parsed.__getitem__, values), dtype=np.int32, count=len(values)
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

        The result is byte-identical to concatenating the rows, and for
        STRING columns to uniquing the decoded rows (sorted dictionary of
        the values that occur, null placeholders included).  It is made
        one of three ways:

        * **in place**, when ``self`` is its buffer's tip and the delta
          fits: only ``other``'s rows are written.  A STRING delta must
          use only values of ``self``'s exact dictionary, which the
          result keeps as the same object; only the delta's codes are
          translated, by a binary search over its distinct values;
        * **copied** into a new buffer with headroom, for any other
          append of such values (a stale snapshot, a fork, a buffer
          that is full, a column no append made);
        * **merged**, when a STRING delta brings a value ``self`` lacks
          or ``self``'s dictionary is not known to be exact: the two
          dictionaries form one pool and every code is re-encoded into
          a new buffer through a table per pool slot, never by decoding
          a row.
        """
        if self.dtype is not other.dtype:
            raise SchemaError(
                f"cannot concat {self.dtype} column with {other.dtype}"
            )
        if self.dictionary is None:
            return self._append(other.data, other.valid)
        codes = self._known_codes(other)
        if codes is not None:
            return self._append(codes, other.valid)
        split = len(self.dictionary)
        lut, dictionary = _encode_pool(
            np.concatenate([self.dictionary, other.dictionary]),
            np.concatenate([
                np.bincount(self.data, minlength=split),
                np.bincount(other.data, minlength=len(other.dictionary)),
            ]),
        )
        return self._copy(
            lut[:split][self.data], lut[split:][other.data], other.valid, dictionary
        )

    def _known_codes(self, other: "Column") -> np.ndarray | None:
        """``other``'s codes in ``self``'s dictionary, when that is its
        buffer's exact dictionary and holds every value ``other`` uses
        (equal and of the same type); ``None`` otherwise."""
        buf = self._buffer
        if buf is None or buf.dictionary is not self.dictionary:
            return None
        counts = np.bincount(other.data, minlength=len(other.dictionary))
        used = np.flatnonzero(counts)
        values = other.dictionary[used]
        slots = np.searchsorted(self.dictionary, values)
        if not (slots < len(self.dictionary)).all():
            return None
        found = self.dictionary[slots]
        if not all(type(a) is type(b) and a == b for a, b in zip(found, values)):
            return None
        lut = np.zeros(len(other.dictionary), dtype=np.int32)
        lut[used] = slots
        return lut[other.data]

    def _append(self, tail: np.ndarray, valid: np.ndarray | None) -> "Column":
        """``self``'s rows, then ``tail`` (physical values in ``self``'s
        encoding) with validity ``valid``: in place at the tip, else
        copied into a new buffer."""
        n, d = len(self.data), len(tail)
        buf = self._buffer
        if (
            buf is not None
            and (valid is None or buf.valid is not None)
            and buf.claim(n, d)
        ):
            buf.write(n, tail, valid)
            return buf.column(n + d, self.dtype)
        return self._copy(self.data, tail, valid, self.dictionary)

    def _copy(
        self,
        head: np.ndarray,
        tail: np.ndarray,
        valid: np.ndarray | None,
        dictionary: np.ndarray | None,
    ) -> "Column":
        """A new buffer holding ``head`` (``self``'s rows, valid as
        ``self``), then ``tail`` with validity ``valid``."""
        buf = _Buffer(
            len(head) + len(tail),
            head.dtype,
            self.valid is not None or valid is not None,
            dictionary,
        )
        buf.write(0, head, self.valid)
        buf.write(len(head), tail, valid)
        return buf.column(buf.length, self.dtype)

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
