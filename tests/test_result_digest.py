"""The result digest's contract: values, not encodings.

Two tables digest equal iff their column names, logical types, validity
masks and decoded values agree in row order.  A STRING column's
dictionary (its order, unused entries, repeated entries) must not
matter, and digesting must cost O(result): no dictionary entry that the
rows do not use is ever read.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.workload import result_digest
from repro.storage.column import Column, DType
from repro.storage.table import Table


def digest(**columns: Column) -> str:
    return result_digest(Table("t", columns))


def strings(values: list[str], valid: list[bool] | None = None) -> Column:
    col = Column.from_strings(values)
    if valid is None:
        return col
    return Column(col.data, DType.STRING, col.dictionary, np.asarray(valid))


_TEXT = st.text(alphabet=st.sampled_from("ab\x1f\x00é"), max_size=4)


@st.composite
def _encodings(draw):
    """One column's values and validity in three encodings."""
    values = draw(st.lists(_TEXT, min_size=1, max_size=30))
    valid = draw(st.lists(st.booleans(), min_size=len(values),
                          max_size=len(values)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = np.asarray(valid)
    # from_codes over a shuffled pool with unused and repeated entries;
    # each row picks any entry spelling its value, a NULL row any entry.
    pool = np.asarray(sorted(set(values)) + ["unused", "zz", values[0]],
                      dtype=object)[rng.permutation(len(set(values)) + 3)]
    # (Python ==, not NumPy's: its U dtype drops trailing NULs.)
    spelled = {v: [i for i, p in enumerate(pool) if p == v] for v in values}
    codes = np.array([rng.choice(spelled[v]) for v in values], dtype=np.int32)
    codes[~mask] = rng.integers(0, len(pool), int((~mask).sum()))
    pooled = Column(codes, DType.STRING, pool, mask)
    # Column.concat re-encodes both halves into one merged dictionary.
    cut = int(rng.integers(0, len(values) + 1))
    merged = Column.from_strings(values[:cut]).concat(
        Column.from_strings(values[cut:])
    )
    joined = Column(merged.data, DType.STRING, merged.dictionary, mask)
    return strings(values, valid), pooled, joined


@settings(max_examples=150, deadline=None)
@given(_encodings())
def test_same_values_digest_equal_under_any_encoding(cols):
    plain, pooled, joined = cols
    assert plain.to_pylist() == pooled.to_pylist() == joined.to_pylist()
    n = len(plain)
    ids = Column.from_ints(np.arange(n))
    want = digest(s=plain, k=ids)
    assert digest(s=pooled, k=ids) == want
    assert digest(s=joined, k=ids) == want


def test_unit_separator_no_longer_collides():
    # The dictionary used to be hashed joined with "\x1f", so one
    # entry "a\x1fb" and the two entries "a", "b" hashed alike.
    one = Column.from_codes(np.array([0]), np.array(["a\x1fb"], dtype=object))
    two = Column.from_codes(np.array([0]), np.array(["a", "b"], dtype=object))
    assert one.to_pylist() == ["a\x1fb"] and two.to_pylist() == ["a"]
    assert digest(s=one) != digest(s=two)


def test_every_difference_changes_the_digest():
    base = digest(s=strings(["a", "b", "c"]), k=Column.from_ints([1, 2, 3]))
    variants = [
        digest(s=strings(["a", "b", "d"]), k=Column.from_ints([1, 2, 3])),
        digest(s=strings(["a", "b", "c"], [True, False, True]),
               k=Column.from_ints([1, 2, 3])),
        digest(t=strings(["a", "b", "c"]), k=Column.from_ints([1, 2, 3])),
        digest(s=strings(["b", "a", "c"]), k=Column.from_ints([2, 1, 3])),
        digest(s=strings(["a", "b", "c"]), k=Column.from_floats(
            np.array([1, 2, 3]).view(np.float64))),
    ]
    assert len({base, *variants}) == 1 + len(variants)


def test_null_placeholders_and_explicit_masks_do_not_matter():
    a = Column(np.array([1, 0, 1], dtype=np.int32), DType.STRING,
               np.array(["x", "y"], dtype=object), np.array([True, False, True]))
    b = Column(np.array([0, 0, 0], dtype=np.int32), DType.STRING,
               np.array(["y", "q"], dtype=object), np.array([True, False, True]))
    assert digest(s=a) == digest(s=b)
    masked = Column(np.array([0, 1]), DType.STRING,
                    np.array(["x", "y"], dtype=object), np.ones(2, dtype=bool))
    assert digest(s=masked) == digest(s=strings(["x", "y"]))


def test_all_null_string_column_over_empty_dictionary():
    empty = Column(np.zeros(3, dtype=np.int32), DType.STRING,
                   np.array([], dtype=object), np.zeros(3, dtype=bool))
    other = Column(np.zeros(3, dtype=np.int32), DType.STRING,
                   np.array(["anything"], dtype=object), np.zeros(3, dtype=bool))
    assert digest(s=empty) == digest(s=other)
    assert digest(s=empty) != digest(s=strings(["", "", ""]))


def test_lone_surrogates_digest():
    a = Column.from_strings(["\ud800"])
    b = Column.from_strings(["\ud801"])
    assert digest(s=a) != digest(s=b)


class _Untouchable(str):
    """A dictionary entry the digest must never read."""

    def encode(self, *args, **kwargs):
        raise AssertionError(f"read unused dictionary entry {str(self)!r}")

    def _never(self, other):
        raise AssertionError(f"compared unused dictionary entry {str(self)!r}")

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _never
    __hash__ = str.__hash__


def test_cost_is_linear_in_the_result_not_the_dictionary():
    size = 100_001
    dictionary = np.empty(size, dtype=object)
    dictionary[:] = [_Untouchable(f"u{i}") for i in range(size)]
    used = np.array([7, 50_000, 99_999, 3, 12], dtype=np.int64)
    for code in used:
        dictionary[code] = f"v{code}"
    codes = np.resize(used, 20)
    col = Column(codes.astype(np.int32), DType.STRING, dictionary)
    expect = Column.from_strings([f"v{c}" for c in codes])
    assert digest(s=col) == digest(s=expect)
