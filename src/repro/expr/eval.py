"""Vectorized expression evaluation.

:func:`evaluate` turns an expression tree into a
:class:`~repro.storage.column.Column` against a table; :func:`evaluate_mask`
is the predicate entry point and returns a plain boolean NumPy array
(with null comparisons yielding ``False``, per SQL three-valued logic
collapsed to its WHERE-clause behaviour).

String predicates work on dictionary codes.  A comparison, IN or LIKE
first resolves the set of codes it accepts (one bool per dictionary
entry), then tests rows against that set.  Comparisons and IN test every
entry.  When the dictionary is strictly increasing (what
:meth:`~repro.storage.column.Column.from_strings`, ``from_pool``,
``concat`` and SUBSTR build; checked per call), codes are ranks, so
LIKE narrows to the code range of its leading literal by binary search:
``'lit%'`` tests no entry at all, other patterns test only the entries
in that range.  ``SUBSTR(x, 1, k)`` on such a dictionary finds each
distinct prefix's run of codes the same way.  Every comparison uses
Python ``str`` order, never NumPy's ``U`` dtype, which drops trailing
NULs.

The row test is as cheap as the code set allows: when the accepted
codes, or their complement, form one run, rows are tested with one or
two integer comparisons on the codes; otherwise the per-entry hits are
gathered through the codes.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass

import numpy as np

from ..errors import ExecutionError, PlanError
from ..storage.column import Column, DType, strictly_increasing
from ..storage.dates import date_to_days, years_of
from ..storage.table import Table
from . import nodes as N


@dataclass(frozen=True)
class _Scalar:
    """A literal value flowing through evaluation before broadcasting."""

    value: object
    is_date: bool = False


def _eval(expr: N.Expr, table: Table) -> "Column | _Scalar":
    """Recursively evaluate, returning a Column or a _Scalar."""
    if isinstance(expr, N.ColumnRef):
        return table.column(expr.name)
    if isinstance(expr, N.Literal):
        return _Scalar(expr.value)
    if isinstance(expr, N.DateLiteral):
        return _Scalar(date_to_days(expr.iso), is_date=True)
    if isinstance(expr, N.Comparison):
        return _compare(expr.op, _eval(expr.left, table), _eval(expr.right, table))
    if isinstance(expr, N.Between):
        operand = _eval(expr.operand, table)
        low = _compare(">=", operand, _eval(expr.low, table))
        high = _compare("<=", operand, _eval(expr.high, table))
        return _bool_col(low.data & high.data)
    if isinstance(expr, N.InSet):
        return _in_set(_eval(expr.operand, table), expr.values)
    if isinstance(expr, N.Like):
        return _like(_eval(expr.operand, table), expr.pattern, expr.negate)
    if isinstance(expr, N.IsNull):
        operand = _eval(expr.operand, table)
        if isinstance(operand, _Scalar):
            raise ExecutionError("IS NULL on a literal")
        nulls = ~operand.validity()
        return _bool_col(~nulls if expr.negate else nulls)
    if isinstance(expr, N.And):
        left = _as_mask(_eval(expr.left, table))
        right = _as_mask(_eval(expr.right, table))
        return _bool_col(left & right)
    if isinstance(expr, N.Or):
        left = _as_mask(_eval(expr.left, table))
        right = _as_mask(_eval(expr.right, table))
        return _bool_col(left | right)
    if isinstance(expr, N.Not):
        return _bool_col(~_as_mask(_eval(expr.operand, table)))
    if isinstance(expr, N.Arithmetic):
        return _arith(expr.op, _eval(expr.left, table), _eval(expr.right, table))
    if isinstance(expr, N.Case):
        return _case(expr, table)
    if isinstance(expr, N.Year):
        operand = _eval(expr.operand, table)
        if isinstance(operand, _Scalar) or operand.dtype is not DType.DATE:
            raise ExecutionError("YEAR expects a DATE column")
        return Column(
            years_of(operand.data.astype(np.int64)), DType.INT64, valid=operand.valid
        )
    if isinstance(expr, N.Substr):
        return _substr(_eval(expr.operand, table), expr.start, expr.length)
    raise ExecutionError(f"cannot evaluate node {type(expr).__name__}")


def evaluate(expr: N.Expr, table: Table) -> Column:
    """Evaluate an expression to a column of ``table.num_rows`` values."""
    result = _eval(expr, table)
    if isinstance(result, _Scalar):
        return _broadcast(result, table.num_rows)
    return result


def evaluate_mask(expr: N.Expr, table: Table) -> np.ndarray:
    """Evaluate a predicate to a boolean row mask."""
    result = evaluate(expr, table)
    if result.dtype is not DType.BOOL:
        raise ExecutionError("predicate did not evaluate to a boolean column")
    mask = result.data
    if result.valid is not None:
        mask = mask & result.valid
    return mask


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _bool_col(mask: np.ndarray) -> Column:
    return Column(mask.astype(np.bool_), DType.BOOL)


def _as_mask(value: "Column | _Scalar") -> np.ndarray:
    if isinstance(value, _Scalar):
        raise ExecutionError("boolean connective applied to a literal")
    if value.dtype is not DType.BOOL:
        raise ExecutionError("boolean connective applied to a non-boolean")
    mask = value.data
    if value.valid is not None:
        mask = mask & value.valid
    return mask


def _broadcast(scalar: _Scalar, n: int) -> Column:
    value = scalar.value
    if scalar.is_date:
        return Column(np.full(n, value, dtype=np.int32), DType.DATE)
    if isinstance(value, bool):
        return Column(np.full(n, value, dtype=np.bool_), DType.BOOL)
    if isinstance(value, int):
        return Column(np.full(n, value, dtype=np.int64), DType.INT64)
    if isinstance(value, float):
        return Column(np.full(n, value, dtype=np.float64), DType.FLOAT64)
    if isinstance(value, str):
        # What from_strings([value] * n) builds, without sorting n copies.
        return Column(
            np.zeros(n, dtype=np.int32),
            DType.STRING,
            dictionary=np.asarray([value] if n else [], dtype=object),
        )
    raise ExecutionError(f"cannot broadcast literal {value!r}")


def _obj(value: str) -> np.ndarray:
    """A 0-d object array: NumPy would make a bare ``str`` a ``U`` scalar,
    which drops trailing NULs."""
    return np.array(value, dtype=object)


def _code_rows(column: Column, hits: np.ndarray) -> np.ndarray:
    """Rows of a STRING column whose code is a hit (one bool per entry).

    When the hits, or their complement, form one run of codes, the rows
    are tested with integer comparisons on the codes; otherwise the hits
    are gathered through them.
    """
    codes = column.data
    flips = np.flatnonzero(hits[1:] != hits[:-1]) + 1
    if len(flips) > 2:
        return hits[codes]
    if len(flips) == 0:
        return np.full(len(codes), len(hits) > 0 and bool(hits[0]))
    if len(flips) == 1:
        edge = int(flips[0])
        return codes < edge if hits[0] else codes >= edge
    lo, hi = int(flips[0]), int(flips[1])
    if hi - lo == 1:
        return codes == lo if hits[lo] else codes != lo
    inside = (codes >= lo) & (codes < hi)
    return inside if hits[lo] else ~inside


def _like_hits(dictionary: np.ndarray, pattern: str) -> np.ndarray:
    """Per-entry result of ``entry LIKE pattern``.

    On a strictly increasing dictionary the entries that start with the
    pattern's leading literal (the text before its first wildcard) are
    one run of codes; only that run is tested, and ``'lit%'`` is the run.
    """
    cut = min(
        (i for i in (pattern.find("%"), pattern.find("_")) if i >= 0),
        default=len(pattern),
    )
    literal = pattern[:cut]
    hits = np.zeros(len(dictionary), dtype=np.bool_)
    lo, hi = 0, len(dictionary)
    if literal and strictly_increasing(dictionary):
        lo = int(dictionary.searchsorted(_obj(literal)))
        hi = bisect.bisect_left(
            dictionary, True, lo=lo, key=lambda e: not e.startswith(literal)
        )
        if pattern[cut:] == "%":
            hits[lo:hi] = True
            return hits
    hits[lo:hi] = _match_entries(dictionary[lo:hi], pattern)
    return hits


def _match_entries(entries: np.ndarray, pattern: str) -> np.ndarray:
    """``entry LIKE pattern`` for each entry: a substring test for
    ``'%lit%'``, the regex otherwise."""
    inner = pattern[1:-1]
    if (
        len(pattern) >= 2
        and pattern[0] == pattern[-1] == "%"
        and "%" not in inner
        and "_" not in inner
    ):
        return np.fromiter(
            (inner in entry for entry in entries), dtype=np.bool_, count=len(entries)
        )
    regex = like_to_regex(pattern)
    return np.fromiter(
        (regex.match(entry) is not None for entry in entries),
        dtype=np.bool_,
        count=len(entries),
    )


_CMP = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def _compare(op: str, left: "Column | _Scalar", right: "Column | _Scalar") -> Column:
    func = _CMP.get(op)
    if func is None:
        # Same code the static analyzer assigns (REP113), so the
        # runtime and `repro check` report this identically.
        raise PlanError(f"REP113: unknown comparison operator {op!r}")
    if isinstance(left, _Scalar) and isinstance(right, _Scalar):
        raise ExecutionError("comparison between two literals")
    # Normalize so the column (or wider column) is on the left.
    if isinstance(left, _Scalar):
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        return _compare(flipped, right, left)

    if isinstance(right, _Scalar):
        value = right.value
        if left.dtype is DType.STRING:
            if not isinstance(value, str):
                raise ExecutionError("string column compared to non-string")
            assert left.dictionary is not None
            mask = _code_rows(left, func(left.dictionary, _obj(value)))
        elif left.dtype is DType.DATE and isinstance(value, str):
            mask = func(left.data, date_to_days(value))
        else:
            mask = func(left.data, value)
        if left.valid is not None:
            mask = mask & left.valid
        return _bool_col(mask)

    # column vs column
    lvals = left.to_values()  # strings decode to objects: Python str order
    rvals = right.to_values()
    mask = func(lvals, rvals)
    if left.valid is not None:
        mask = mask & left.valid
    if right.valid is not None:
        mask = mask & right.valid
    return _bool_col(mask)


def _in_set(operand: "Column | _Scalar", values: tuple) -> Column:
    if isinstance(operand, _Scalar):
        raise ExecutionError("IN applied to a literal")
    if operand.dtype is DType.STRING:
        wanted = set(values)
        dict_hits = np.fromiter(
            (entry in wanted for entry in operand.dictionary),
            dtype=np.bool_,
            count=len(operand.dictionary),
        )
        mask = _code_rows(operand, dict_hits)
    elif operand.dtype is DType.DATE:
        days = np.array([date_to_days(v) for v in values], dtype=np.int32)
        mask = np.isin(operand.data, days)
    else:
        mask = np.isin(operand.data, np.asarray(list(values)))
    if operand.valid is not None:
        mask = mask & operand.valid
    return _bool_col(mask)


def like_to_regex(pattern: str) -> re.Pattern:
    """Compile a SQL LIKE pattern (``%``/``_``) to an anchored regex."""
    out = []
    for char in pattern:
        if char == "%":
            out.append(".*")
        elif char == "_":
            out.append(".")
        else:
            out.append(re.escape(char))
    return re.compile("".join(out) + r"\Z", re.DOTALL)


def _like(operand: "Column | _Scalar", pattern: str, negate: bool) -> Column:
    if isinstance(operand, _Scalar) or operand.dtype is not DType.STRING:
        raise ExecutionError("LIKE expects a string column")
    assert operand.dictionary is not None
    hits = _like_hits(operand.dictionary, pattern)
    mask = _code_rows(operand, ~hits if negate else hits)
    if operand.valid is not None:
        mask = mask & operand.valid
    return _bool_col(mask)


def _arith(
    op: str, left: "Column | _Scalar", right: "Column | _Scalar"
) -> "Column | _Scalar":
    lscalar, rscalar = isinstance(left, _Scalar), isinstance(right, _Scalar)
    if lscalar and rscalar:
        # Constant folding (e.g. resolved scalar subquery times a literal).
        lv, rv = left.value, right.value
        if op == "+":
            return _Scalar(lv + rv)
        if op == "-":
            return _Scalar(lv - rv)
        if op == "*":
            return _Scalar(lv * rv)
        if op == "/":
            return _Scalar(lv / rv)
        raise PlanError(f"REP113: unknown arithmetic operator {op!r}")
    ldata = left.value if lscalar else left.data
    rdata = right.value if rscalar else right.data
    if op == "+":
        data = np.add(ldata, rdata)
    elif op == "-":
        data = np.subtract(ldata, rdata)
    elif op == "*":
        data = np.multiply(ldata, rdata)
    elif op == "/":
        data = np.divide(np.asarray(ldata, dtype=np.float64), rdata)
    else:
        raise PlanError(f"REP113: unknown arithmetic operator {op!r}")
    valid = None
    if not lscalar and left.valid is not None:
        valid = left.valid
    if not rscalar and right.valid is not None:
        valid = right.valid if valid is None else (valid & right.valid)
    dtype = DType.INT64 if data.dtype.kind in "iu" else DType.FLOAT64
    return Column(data, dtype, valid=valid)


def _case(expr: N.Case, table: Table) -> Column:
    conditions = [evaluate_mask(cond, table) for cond, _ in expr.whens]
    values = [evaluate(value, table).data for _, value in expr.whens]
    default = evaluate(expr.default, table).data
    data = np.select(conditions, values, default=default)
    dtype = DType.INT64 if data.dtype.kind in "iu" else DType.FLOAT64
    return Column(data.astype(np.float64) if dtype is DType.FLOAT64 else data, dtype)


def _substr(operand: "Column | _Scalar", start: int, length: int) -> Column:
    if isinstance(operand, _Scalar) or operand.dtype is not DType.STRING:
        raise ExecutionError("SUBSTRING expects a string column")
    dictionary = operand.dictionary
    assert dictionary is not None
    if start == 1 and length >= 0 and strictly_increasing(dictionary):
        heads, bounds = _prefix_runs(dictionary.tolist(), length)
        new_dict = np.asarray(heads, dtype=object)
        remap = np.repeat(np.arange(len(heads), dtype=np.int32), np.diff(bounds))
    else:
        clipped = np.asarray(
            [entry[start - 1 : start - 1 + length] for entry in dictionary],
            dtype=object,
        )
        new_dict, remap = np.unique(clipped, return_inverse=True)
    return Column(
        remap.astype(np.int32)[operand.data],
        DType.STRING,
        dictionary=new_dict,
        valid=operand.valid,
    )


def _prefix_runs(entries: list[str], length: int) -> tuple[list[str], list[int]]:
    """Distinct ``entry[:length]`` of sorted entries, and run bounds:
    ``entries[bounds[i]:bounds[i + 1]]`` share prefix ``heads[i]``.

    Prefixes of sorted strings are non-decreasing, so each distinct prefix
    is one run of codes.  A galloping search finds a run's end in
    O(log r) slices for a run of r codes: 25 steps for ``c_phone``'s
    two-character prefixes, and O(n) when most prefixes are distinct.
    """

    def prefix(entry: str) -> str:
        return entry[:length]

    n = len(entries)
    heads: list[str] = []
    bounds = [0]
    end = 0
    while end < n:
        head = entries[end][:length]
        # Codes below ``lo`` are in the run; ``lo + step - 1`` is not, or
        # is past the end.
        lo, step = end + 1, 1
        while lo + step <= n and entries[lo + step - 1][:length] == head:
            lo += step
            step *= 2
        end = lo  # the first probe failed: a run of one code
        if step > 1:
            hi = min(lo + step - 1, n)
            end = bisect.bisect_right(entries, head, lo, hi, key=prefix)
        heads.append(head)
        bounds.append(end)
    return heads, bounds
