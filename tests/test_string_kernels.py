"""Property tests for the string predicate kernels of ``expr/eval.py``.

Every STRING predicate resolves the dictionary codes it accepts and then
tests rows against them.  LIKE narrows by binary search on a strictly
increasing dictionary and tests every entry of an unsorted one.  These
tests check both paths, and the code-range row test, against an oracle
that decodes each row to a Python ``str`` and applies the predicate
directly.  The LIKE
oracle below is its own matcher, independent of ``like_to_regex``.
"""

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expr.eval import evaluate, evaluate_mask
from repro.expr.nodes import Comparison, InSet, Like, col, lit, substr
from repro.storage.column import Column
from repro.storage.table import Table

# Wildcards, a NUL (NumPy's ``U`` dtype drops trailing ones) and a
# non-ASCII letter, in the data as well as in the patterns.
ALPHABET = "ab%_\x00é"
TEXT = st.text(alphabet=ALPHABET, max_size=4)

OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def like(value: str, pattern: str) -> bool:
    """SQL LIKE by recursion on the pattern (``%`` any run, ``_`` one char)."""
    if not pattern:
        return not value
    head, rest = pattern[0], pattern[1:]
    if head == "%":
        return any(like(value[i:], rest) for i in range(len(value) + 1))
    if not value:
        return False
    return (head == "_" or head == value[0]) and like(value[1:], rest)


@st.composite
def string_columns(draw: st.DrawFn) -> Column:
    """A STRING column in one of the encodings the engine meets."""
    kind = draw(st.sampled_from(["sorted", "unsorted", "nullable"]))
    if kind == "unsorted":
        # A generator-style pool: shuffled, may repeat, may have unused
        # entries.
        pool = draw(st.lists(TEXT, min_size=1, max_size=8))
        codes = draw(st.lists(st.integers(0, len(pool) - 1), max_size=12))
        return Column.from_codes(np.asarray(codes, dtype=np.int32), pool)
    values = draw(st.lists(TEXT, max_size=12))
    column = Column.from_strings(values)
    if kind == "nullable" and values:
        rows = draw(st.lists(st.integers(-1, len(values) - 1), max_size=12))
        column = column.take_nullable(np.asarray(rows, dtype=np.int64))
    return column


def _check(column: Column, expr, predicate) -> None:
    table = Table("t", {"s": column})
    expected = [v is not None and predicate(v) for v in column.to_pylist()]
    assert evaluate_mask(expr, table).tolist() == expected


@settings(max_examples=300, deadline=None)
@given(column=string_columns(), pattern=st.text(alphabet=ALPHABET, max_size=5))
def test_like_and_not_like(column, pattern):
    _check(column, Like(col("s"), pattern, False), lambda v: like(v, pattern))
    _check(column, Like(col("s"), pattern, True), lambda v: not like(v, pattern))


@settings(max_examples=300, deadline=None)
@given(column=string_columns(), op=st.sampled_from(sorted(OPS)), value=TEXT)
def test_comparisons(column, op, value):
    _check(column, Comparison(op, col("s"), lit(value)), lambda v: OPS[op](v, value))


@settings(max_examples=200, deadline=None)
@given(column=string_columns(), values=st.lists(TEXT, max_size=4))
def test_in(column, values):
    wanted = set(values)
    _check(column, InSet(col("s"), tuple(values)), lambda v: v in wanted)


def _unique_path(column: Column, start: int, length: int) -> tuple[list, np.ndarray]:
    """SUBSTR's reference encoding: ``np.unique`` over the clipped entries."""
    clipped = np.asarray(
        [e[start - 1 : start - 1 + length] for e in column.dictionary], dtype=object
    )
    entries, inverse = np.unique(clipped, return_inverse=True)
    return entries.tolist(), inverse.astype(np.int32)[column.data]


@settings(max_examples=300, deadline=None)
@given(
    column=string_columns(),
    start=st.integers(1, 4),
    length=st.integers(0, 4),
)
def test_substr_matches_unique_path(column, start, length):
    result = evaluate(substr(col("s"), start, length), Table("t", {"s": column}))
    expected = [
        None if v is None else v[start - 1 : start - 1 + length]
        for v in column.to_pylist()
    ]
    assert result.to_pylist() == expected
    entries, codes = _unique_path(column, start, length)
    assert result.dictionary.dtype == object
    assert result.dictionary.tolist() == entries
    assert all(type(e) is str for e in result.dictionary)
    assert result.data.dtype == np.int32
    assert result.data.tobytes() == codes.tobytes()
    assert result.valid is column.valid


@pytest.mark.parametrize("length", [0, 2, 3, 4, 9])
def test_substr_prefix_runs_of_every_length(length):
    """Runs of 1 to 70 codes per prefix, entries shorter than the prefix
    and a run that ends the dictionary: every galloping step and bound."""
    values = [f"{run:02d}{i:02d}" for run in range(1, 71) for i in range(run)]
    values += ["0", "7", "99"]
    column = Column.from_strings(values)
    result = evaluate(substr(col("s"), 1, length), Table("t", {"s": column}))
    entries, codes = _unique_path(column, 1, length)
    assert result.dictionary.tolist() == entries
    assert result.data.tobytes() == codes.tobytes()


@pytest.mark.parametrize(
    "column",
    [
        Column.from_strings([]),
        Column.from_strings(["a\x00", "a\x00"]),
        Column.from_codes(np.zeros(3, dtype=np.int32), ["é"]),
    ],
    ids=["empty", "one-entry", "one-entry-pool"],
)
@pytest.mark.parametrize("value", ["", "a", "a\x00", "é", "%"])
def test_tiny_dictionaries(column, value):
    for op, func in OPS.items():
        _check(column, Comparison(op, col("s"), lit(value)), lambda v: func(v, value))
    for pattern in (value, value + "%", "%" + value + "%", "_"):
        _check(column, Like(col("s"), pattern, False), lambda v: like(v, pattern))
    _check(column, InSet(col("s"), (value,)), lambda v: v == value)
