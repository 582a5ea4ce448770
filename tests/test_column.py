"""Unit tests for the Column vector type."""

import gc
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.storage import column as column_module
from repro.storage.column import Column, DType, strictly_increasing


def test_from_ints():
    col = Column.from_ints([1, 2, 3])
    assert col.dtype is DType.INT64
    assert col.to_pylist() == [1, 2, 3]


def test_from_floats():
    col = Column.from_floats([1.5, 2.5])
    assert col.dtype is DType.FLOAT64
    assert col.to_pylist() == [1.5, 2.5]


def test_from_bools():
    col = Column.from_bools([True, False])
    assert col.dtype is DType.BOOL
    assert col.to_pylist() == [True, False]


def test_from_strings_dictionary_encodes():
    col = Column.from_strings(["b", "a", "b", "c"])
    assert col.dtype is DType.STRING
    assert len(col.dictionary) == 3
    assert col.to_pylist() == ["b", "a", "b", "c"]


def test_from_codes():
    col = Column.from_codes(np.array([0, 1, 0]), np.array(["x", "y"], dtype=object))
    assert col.to_pylist() == ["x", "y", "x"]


@settings(max_examples=200, deadline=None)
@given(
    pool=st.lists(st.sampled_from(["", "a", "b", "B", "ab", "é", "z\x00"]), min_size=1),
    data=st.data(),
)
def test_from_pool_is_from_strings_of_the_decoded_rows(pool, data):
    """Repeated, unsorted and unused pool entries, no rows at all: the
    column is byte-identical to uniquing the decoded rows."""
    codes = np.asarray(
        data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=30)), dtype=np.int64
    )
    got = Column.from_pool(codes, pool)
    want = Column.from_strings([pool[c] for c in codes])
    assert got.data.dtype == want.data.dtype == np.int32
    assert got.data.tobytes() == want.data.tobytes()
    assert got.dictionary.dtype == want.dictionary.dtype == object
    assert got.dictionary.tolist() == want.dictionary.tolist()
    assert got.valid is None


def _decode_unique_concat(a: Column, b: Column):
    """STRING concat by the formula the dictionary merge replaced:
    decode every row of both sides and unique the object values."""
    values = np.concatenate([a.to_values(), b.to_values()])
    dictionary, codes = np.unique(values, return_inverse=True)
    valid = None
    if a.valid is not None or b.valid is not None:
        valid = np.concatenate([a.validity(), b.validity()])
    return codes.astype(np.int32), dictionary.astype(object), valid


_WORDS = ["", "a", "b", "B", "ab", "é", "z\x00", "left", "right"]


@st.composite
def _string_columns(draw):
    """STRING columns as the engine builds them: unsorted pools with
    repeated and unused entries, uniqued strings, null-bearing outer-join
    gathers, and empty columns."""
    pool = draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=8))
    codes = draw(st.lists(st.integers(0, len(pool) - 1), max_size=25))
    kind = draw(st.sampled_from(["codes", "strings", "nullable", "empty"]))
    if kind == "strings":
        return Column.from_strings([pool[c] for c in codes])
    base = Column.from_codes(np.asarray(codes, dtype=np.int64), pool)
    if kind == "empty":
        return base.slice(0, 0)
    if kind == "nullable":
        picks = draw(st.lists(st.integers(-1, len(codes) - 1), max_size=25))
        return base.take_nullable(np.asarray(picks, dtype=np.int64))
    return base


@settings(max_examples=300, deadline=None)
@given(left=_string_columns(), right=_string_columns())
def test_string_concat_matches_decode_and_unique(left, right):
    """Merging dictionaries is byte-identical to uniquing decoded rows:
    codes, dictionary values and their element type, and validity."""
    codes, dictionary, valid = _decode_unique_concat(left, right)
    got = left.concat(right)
    assert got.data.dtype == np.int32
    assert got.data.tobytes() == codes.tobytes()
    assert got.dictionary.dtype == object
    assert got.dictionary.tolist() == dictionary.tolist()
    assert [type(v) for v in got.dictionary] == [type(v) for v in dictionary]
    if valid is None:
        assert got.valid is None
    else:
        assert np.array_equal(got.valid, valid)


def test_string_concat_allocates_per_row_integers_only():
    """Appending 512 rows to a 200 k-row STRING column peaks at a few
    times the result's code bytes; decoding every row into an object
    array and sorting it took ≈ 12×."""
    import tracemalloc

    rng = np.random.default_rng(7)
    pool = [f"word{i:04d}" for i in rng.permutation(2000)]
    table = Column.from_pool(rng.integers(0, 2000, 200_000), pool)
    delta = Column.from_pool(rng.integers(0, 2000, 512), pool)
    tracemalloc.start()
    try:
        merged = table.concat(delta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(merged) == 200_512
    assert peak <= 4 * merged.data.nbytes, peak / merged.data.nbytes


# ----------------------------------------------------------------------
# Append chains: in place at the tip, copied everywhere else
# ----------------------------------------------------------------------
def _expected(parent: Column, delta: Column):
    """``parent.concat(delta)`` as the rows say it must be."""
    if parent.dtype is DType.STRING:
        return _decode_unique_concat(parent, delta)
    valid = None
    if parent.valid is not None or delta.valid is not None:
        valid = np.concatenate([parent.validity(), delta.validity()])
    return np.concatenate([parent.data, delta.data]), None, valid


def _assert_is(got: Column, want) -> None:
    data, dictionary, valid = want
    assert got.data.dtype == data.dtype
    assert got.data.tobytes() == data.tobytes()
    if dictionary is None:
        assert got.dictionary is None
    else:
        assert got.dictionary.dtype == object
        assert got.dictionary.tolist() == dictionary.tolist()
        assert [type(v) for v in got.dictionary] == [type(v) for v in dictionary]
    if valid is None:
        assert got.valid is None
    else:
        assert got.valid.tobytes() == valid.tobytes()


def _image(column: Column) -> tuple:
    """Everything a reader of ``column`` can observe, as values."""
    return (
        column.data.tobytes(),
        None if column.dictionary is None else column.dictionary.tolist(),
        None if column.valid is None else column.valid.tobytes(),
    )


@st.composite
def _int_columns(draw):
    values = draw(st.lists(st.integers(-3, 3), max_size=12))
    column = Column.from_ints(np.asarray(values, dtype=np.int64))
    if values and draw(st.booleans()):
        picks = draw(st.lists(st.integers(-1, len(values) - 1), max_size=12))
        return column.take_nullable(np.asarray(picks, dtype=np.int64))
    return column


@settings(max_examples=300, deadline=None)
@given(data=st.data(), strings=st.booleans())
def test_append_chain_matches_the_rows(data, strings):
    """Appends at the tip, onto stale ancestors (forks), with NULLs, new
    strings and no rows at all: every result is what its rows say, and
    no append changes a byte any earlier column shows."""
    draw_column = _string_columns() if strings else _int_columns()
    chain = [data.draw(draw_column)]
    images = [_image(chain[0])]
    for _ in range(data.draw(st.integers(1, 8))):
        tip = data.draw(st.booleans())
        parent = chain[-1] if tip else data.draw(st.sampled_from(chain))
        delta = data.draw(draw_column)
        got = parent.concat(delta)
        _assert_is(got, _expected(parent, delta))
        chain.append(got)
        images.append(_image(got))
        assert [_image(c) for c in chain] == images


def test_tip_append_writes_the_delta_and_keeps_the_dictionary():
    base = Column.from_strings(["b", "a", "c", "a"] * 10)
    one = base.concat(Column.from_strings(["z"]))  # a merge: new buffer
    assert column_module.concat_bytes(base, one) == one.data.nbytes
    two = one.concat(Column.from_strings(["a", "z", "b"]))
    assert two.dictionary is one.dictionary
    assert column_module.concat_bytes(one, two) == 3 * 4
    with pytest.raises(ValueError):
        two.data[0] = 1  # columns are read-only views
    fork = one.concat(Column.from_strings(["c"]))  # one is no longer the tip
    assert column_module.concat_bytes(one, fork) == fork.data.nbytes
    assert fork.to_pylist()[-2:] == ["z", "c"]
    assert two.to_pylist()[-4:] == ["z", "a", "z", "b"]
    nulls = two.concat(Column.from_strings(["a", "b"]).take_nullable(np.array([0, -1])))
    assert nulls.to_pylist()[-2:] == ["a", None]


def test_two_threads_append_to_one_tip():
    """Both appends are right whichever claims the tip; the other copies."""
    words = [f"w{i}" for i in range(40)]
    rng = np.random.default_rng(3)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            tip = Column.from_strings(rng.choice(words, 5000).tolist()).concat(
                Column.from_strings(words)
            )
            before = _image(tip)
            deltas = [
                Column.from_strings(rng.choice(words, 300).tolist()) for _ in range(2)
            ]
            results: list = [None, None]
            barrier = threading.Barrier(2)

            def append(k: int) -> None:
                barrier.wait()
                results[k] = tip.concat(deltas[k])

            threads = [threading.Thread(target=append, args=(k,)) for k in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            for got, delta in zip(results, deltas):
                _assert_is(got, _decode_unique_concat(tip, delta))
            assert _image(tip) == before
            shared = [got._buffer is tip._buffer for got in results]
            assert shared.count(True) == 1
    finally:
        sys.setswitchinterval(switch)


def test_failed_commit_leaves_pinned_snapshot_and_next_commit_right():
    """A commit whose second table fails at concat (a dtype mismatch)
    has already appended the first table at its tip: the pinned
    snapshot still reads its old bytes, and the next commit is right."""
    from repro.storage import Catalog, Table

    def table(name: str, n: int, start: int = 0) -> Table:
        keys = np.arange(start, start + n, dtype=np.int64)
        return Table(
            name,
            {
                "k": Column.from_ints(keys),
                "s": Column.from_strings([f"s{k % 7}" for k in keys]),
            },
        )

    catalog = Catalog({"a": table("a", 50), "b": table("b", 30)})
    for start in (100, 200):  # tables now sit at their buffers' tips
        batch = catalog.begin_ingest()
        batch.stage("a", table("a", 10, start))
        batch.stage("b", table("b", 10, start))
        batch.commit()
    pinned = catalog.scoped()
    a_before = {c: _image(col) for c, col in pinned.get("a").columns.items()}
    bad = table("b", 10, 300)
    bad.columns["k"] = Column.from_floats(np.zeros(10))
    batch = catalog.begin_ingest()
    batch.stage("a", table("a", 10, 300))
    batch.stage("b", bad)
    with pytest.raises(SchemaError):
        batch.commit()
    assert catalog.get("a") is pinned.get("a")
    assert {c: _image(col) for c, col in pinned.get("a").columns.items()} == a_before
    batch = catalog.begin_ingest()
    delta = table("a", 10, 400)
    batch.stage("a", delta)
    batch.commit()
    for name, column in catalog.get("a").columns.items():
        _assert_is(column, _expected(pinned.get("a").column(name), delta.column(name)))
    assert {c: _image(col) for c, col in pinned.get("a").columns.items()} == a_before


def test_from_dates_strings_and_days():
    col = Column.from_dates(["1994-01-01", "1994-01-02"])
    assert col.dtype is DType.DATE
    assert col.data[1] - col.data[0] == 1
    same = Column.from_dates(col.data)
    assert same.to_pylist() == ["1994-01-01", "1994-01-02"]


def test_string_requires_dictionary():
    with pytest.raises(SchemaError):
        Column(np.array([0], dtype=np.int32), DType.STRING)


def test_non_string_rejects_dictionary():
    with pytest.raises(SchemaError):
        Column(
            np.array([0]), DType.INT64, dictionary=np.array(["x"], dtype=object)
        )


def test_take_and_filter():
    col = Column.from_ints([10, 20, 30, 40])
    assert col.take(np.array([3, 0])).to_pylist() == [40, 10]
    assert col.filter(np.array([True, False, True, False])).to_pylist() == [10, 30]


def test_take_preserves_dictionary():
    col = Column.from_strings(["a", "b", "a"])
    taken = col.take(np.array([2, 1]))
    assert taken.to_pylist() == ["a", "b"]


def test_take_nullable_introduces_nulls():
    col = Column.from_ints([10, 20, 30])
    out = col.take_nullable(np.array([1, -1, 2]))
    assert out.to_pylist() == [20, None, 30]
    assert out.null_count() == 1


def test_take_nullable_all_valid_has_no_mask():
    col = Column.from_ints([1, 2])
    out = col.take_nullable(np.array([0, 1]))
    assert out.valid is None


def test_value_at_with_nulls():
    col = Column.from_ints([5, 6]).take_nullable(np.array([0, -1]))
    assert col.value_at(0) == 5
    assert col.value_at(1) is None


def test_value_at_date():
    col = Column.from_dates(["1994-05-05"])
    assert col.value_at(0) == "1994-05-05"


def test_equals_logical():
    a = Column.from_strings(["x", "y"])
    b = Column.from_strings(["x", "y", "y"]).take(np.array([0, 1]))
    assert a.equals(b)


def test_equals_detects_difference():
    assert not Column.from_ints([1, 2]).equals(Column.from_ints([1, 3]))
    assert not Column.from_ints([1]).equals(Column.from_floats([1.0]))


def test_equals_float_tolerance():
    a = Column.from_floats([0.1 + 0.2])
    b = Column.from_floats([0.3])
    assert a.equals(b)


def test_validity_mask_shape_checked():
    with pytest.raises(SchemaError):
        Column(np.array([1, 2]), DType.INT64, valid=np.array([True]))


def test_to_values_strings():
    col = Column.from_strings(["p", "q", "p"])
    assert list(col.to_values()) == ["p", "q", "p"]


# ----------------------------------------------------------------------
# strictly_increasing remembers its answer per dictionary object
# ----------------------------------------------------------------------
class _CountingStr(str):
    """A ``str`` that counts its ``<`` comparisons."""

    compared = 0

    def __lt__(self, other):
        type(self).compared += 1
        return str.__lt__(self, other)


def test_sortedness_is_compared_once_per_dictionary():
    dictionary = np.array([_CountingStr(s) for s in "abcd"], dtype=object)
    _CountingStr.compared = 0
    assert strictly_increasing(dictionary)
    first = _CountingStr.compared
    assert first > 0
    assert strictly_increasing(dictionary)
    assert _CountingStr.compared == first  # the second call compares nothing
    # Equal contents in another object are another dictionary.
    unsorted = np.array([_CountingStr(s) for s in "dcba"], dtype=object)
    assert not strictly_increasing(unsorted)
    assert not strictly_increasing(unsorted)


def test_sortedness_entry_dies_with_its_dictionary():
    dictionary = np.array(["a", "b"], dtype=object)
    assert strictly_increasing(dictionary)
    key = id(dictionary)
    assert key in column_module._INCREASING
    del dictionary
    gc.collect()
    assert key not in column_module._INCREASING


def test_sortedness_memo_under_threads():
    # More threads than cores, dictionaries born and dropped all along
    # (so ids are reused): every answer must be the dictionary's own.
    errors = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def work(seed: int) -> None:
        rng = np.random.default_rng(seed)
        for _ in range(300):
            words = sorted({f"w{v:03d}" for v in rng.integers(0, 50, 6)})
            if rng.random() < 0.5:
                words = words[::-1]
            dictionary = np.array(words, dtype=object)
            want = all(a < b for a, b in zip(words, words[1:]))
            if strictly_increasing(dictionary) != want or strictly_increasing(dictionary) != want:
                errors.append(words)

    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(switch)
    assert errors == []
