"""Property-based tests of the core soundness invariant on random
join graphs: predicate transfer (any configuration) never removes a row
that participates in the full join result."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ptgraph import build_pt_graph
from repro.core.transfer import ExecContext, TransferConfig, run_transfer_rows
from repro.core.yannakakis import run_semi_join_rows
from repro.plan.joingraph import build_join_graph
from repro.plan.query import QuerySpec, Relation, edge
from repro.storage.table import Table

# Random chain query R0 - R1 - ... - Rk over small key domains, which
# makes both matches and misses likely.
chain_tables = st.lists(
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=25),
    min_size=2,
    max_size=4,
)


def _build_chain(key_lists):
    """Chain query: table i joins table i+1 on (right_i == left_{i+1}).

    Each table has a `left` and `right` key column drawn from the same
    list (shifted by one) so chains of matches occur.
    """
    tables = {}
    relations = []
    edges = []
    for i, keys in enumerate(key_lists):
        alias = f"t{i}"
        arr = np.asarray(keys, dtype=np.int64)
        tables[alias] = Table.from_pydict(
            alias, {"left": arr, "right": (arr + 1) % 6, "row": np.arange(len(arr))}
        )
        relations.append(Relation(alias, alias))
        if i > 0:
            edges.append(edge(f"t{i-1}", alias, ("right", "left")))
    spec = QuerySpec("chain", relations=relations, edges=edges)
    return spec, tables


def _participating_rows(key_lists):
    """Brute-force: per table, the set of row indices in the full join."""
    n = len(key_lists)
    tables = [
        [(k, (k + 1) % 6, i) for i, k in enumerate(keys)] for keys in key_lists
    ]
    participating = [set() for _ in range(n)]

    def recurse(level, prev_right, path):
        if level == n:
            for table_index, row in enumerate(path):
                participating[table_index].add(row)
            return
        for left, right, row in tables[level]:
            if prev_right is None or left == prev_right:
                recurse(level + 1, right, path + [row])

    recurse(0, None, [])
    return participating


def _state(tables):
    """An uncached context over the scanned (prefixed) tables, every
    row alive."""
    return ExecContext(
        tables={a: t.prefixed(a) for a, t in tables.items()},
        rows={a: np.arange(t.num_rows) for a, t in tables.items()},
    )


def _ptgraph(spec, state):
    return build_pt_graph(build_join_graph(spec), state.row_counts())


def _alive(state, alias):
    return set(state.rows[alias].tolist())


@settings(max_examples=40, deadline=None)
@given(chain_tables)
def test_transfer_soundness_bloom(key_lists):
    spec, tables = _build_chain(key_lists)
    participating = _participating_rows(key_lists)
    state = _state(tables)
    run_transfer_rows(state, _ptgraph(spec, state), TransferConfig(fpp=0.05))
    for i in range(len(key_lists)):
        assert participating[i] <= _alive(state, f"t{i}"), (
            "transfer dropped a contributing row"
        )


def _pad_increasing(key_lists):
    """Pad tables so sizes strictly increase along the chain.

    Predicate transfer only matches the Yannakakis guarantee when the
    size-heuristic DAG orientation happens to be a directed path (the
    paper is explicit that the general case loses filtering power —
    e.g. two sinks fed by one source never exchange reductions).  The
    sentinel key 6 joins nothing upstream, so padding rows can only
    participate via their own right key like any other row.
    """
    padded = []
    size = 0
    for keys in key_lists:
        size = max(size + 1, len(keys))
        padded.append(list(keys) + [6] * (size - len(keys)))
    return padded


@settings(max_examples=40, deadline=None)
@given(chain_tables)
def test_transfer_exact_equals_participation(key_lists):
    """Exact-filter transfer on a chain whose PT orientation is a path
    achieves the Yannakakis guarantee: survivors == participating rows."""
    key_lists = _pad_increasing(key_lists)
    spec, tables = _build_chain(key_lists)
    participating = _participating_rows(key_lists)

    state = _state(tables)
    run_transfer_rows(state, _ptgraph(spec, state), TransferConfig("exact"))
    for i in range(len(key_lists)):
        assert _alive(state, f"t{i}") == participating[i]


@settings(max_examples=40, deadline=None)
@given(chain_tables)
def test_yannakakis_exact_on_chains(key_lists):
    spec, tables = _build_chain(key_lists)
    participating = _participating_rows(key_lists)
    state = _state(tables)
    run_semi_join_rows(state, build_join_graph(spec))
    for i in range(len(key_lists)):
        assert _alive(state, f"t{i}") == participating[i]


@settings(max_examples=25, deadline=None)
@given(chain_tables, st.floats(min_value=0.01, max_value=0.3))
def test_bloom_survivors_superset_of_exact(key_lists, fpp):
    spec, tables = _build_chain(key_lists)

    bloom, exact = _state(tables), _state(tables)
    run_transfer_rows(bloom, _ptgraph(spec, bloom), TransferConfig(fpp=fpp))
    run_transfer_rows(exact, _ptgraph(spec, exact), TransferConfig("exact"))
    for alias in tables:
        assert _alive(exact, alias) <= _alive(bloom, alias)
