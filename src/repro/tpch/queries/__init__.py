"""The 22 TPC-H queries as :class:`~repro.plan.query.QuerySpec` builders.

Each ``qNN`` module exposes ``build(sf) -> QuerySpec``; the scale factor
is needed only by Q11 (whose HAVING fraction scales as ``0.0001/SF`` per
the spec) but accepted uniformly.

``BENCH_QUERY_IDS`` is the paper's Figure 4 set: all queries except Q1
and Q6, which contain no joins.  ``CYCLIC_QUERY_IDS`` adds the
beyond-TPC-H shapes of :mod:`.extra` — triangle cycle, self-join cycle
and cross product — addressable from :func:`get_query` (and therefore
the CLI, the bench harness and the service) by their string ids
``"c1"``–``"c3"``.
"""

from __future__ import annotations

from ...plan.query import QuerySpec
from . import extra
from . import (
    q01,
    q02,
    q03,
    q04,
    q05,
    q06,
    q07,
    q08,
    q09,
    q10,
    q11,
    q12,
    q13,
    q14,
    q15,
    q16,
    q17,
    q18,
    q19,
    q20,
    q21,
    q22,
)

_BUILDERS = {
    1: q01.build, 2: q02.build, 3: q03.build, 4: q04.build, 5: q05.build,
    6: q06.build, 7: q07.build, 8: q08.build, 9: q09.build, 10: q10.build,
    11: q11.build, 12: q12.build, 13: q13.build, 14: q14.build, 15: q15.build,
    16: q16.build, 17: q17.build, 18: q18.build, 19: q19.build, 20: q20.build,
    21: q21.build, 22: q22.build,
}

#: Cyclic / self-join / cross-product extras (string ids).
_EXTRA_BUILDERS = {
    "c1": extra.build_c1,
    "c2": extra.build_c2,
    "c3": extra.build_c3,
}

ALL_QUERY_IDS: tuple[int, ...] = tuple(sorted(_BUILDERS))

#: The paper's Figure 4 benchmark set (Q1/Q6 have no joins).
BENCH_QUERY_IDS: tuple[int, ...] = tuple(
    q for q in ALL_QUERY_IDS if q not in (1, 6)
)

#: The beyond-Figure-4 shapes: triangle cycle, self-join cycle,
#: cross product (see :mod:`.extra`).
CYCLIC_QUERY_IDS: tuple[str, ...] = tuple(sorted(_EXTRA_BUILDERS))

Q5_JOIN_ORDERS = q05.JOIN_ORDERS


def get_query(number: int | str, sf: float = 1.0) -> QuerySpec:
    """Build TPC-H query ``number`` (1–22, or ``"c1"``–``"c3"``)."""
    builder = _BUILDERS.get(number) or _EXTRA_BUILDERS.get(number)
    if builder is None:
        raise ValueError(
            f"no TPC-H query {number!r}; valid: 1..22 and "
            f"{', '.join(CYCLIC_QUERY_IDS)}"
        )
    return builder(sf)


__all__ = [
    "ALL_QUERY_IDS",
    "BENCH_QUERY_IDS",
    "CYCLIC_QUERY_IDS",
    "Q5_JOIN_ORDERS",
    "get_query",
]
