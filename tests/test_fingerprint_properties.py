"""Property tests for fingerprint stability and sensitivity.

The cross-query cache is only sound if fingerprints are (a) *stable* —
the same query shape over the same data version always maps to the same
key, across rebuilt ASTs and sessions — and (b) *sensitive* — any
change to predicate constants, key columns, filter parameters, or data
version yields a distinct key.  Over drawn trees of every node type,
two trees have equal alias-stripped forms exactly when they are equal.
"""

from __future__ import annotations

import dataclasses
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import FilterCache, build_query_cache
from repro.cache.fingerprint import (
    canonical_expr,
    filter_fingerprint,
    plan_parts,
    scan_fingerprint,
    strip_alias,
)
from repro.core.transfer import TransferConfig
from repro.expr import nodes as N
from repro.expr.nodes import col, date, lit
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.tpch.queries import get_query


def make_pred():
    return (col("l.l_quantity").gt(lit(24)) & col("l.l_shipdate").le(
        date("1995-03-15")
    )) | col("l.l_discount").between(lit(0.05), lit(0.07))


def test_canonical_expr_stable_across_rebuilds():
    # Two structurally identical trees built independently serialize
    # identically (no dependence on object identity or hash()).
    assert canonical_expr(make_pred()) == canonical_expr(make_pred())


def test_canonical_expr_alias_stripping():
    a = col("l1.l_orderkey").gt(lit(5))
    b = col("l2.l_orderkey").gt(lit(5))
    assert canonical_expr(a, "l1") == canonical_expr(b, "l2")
    assert canonical_expr(a) != canonical_expr(b)


def test_canonical_expr_distinguishes_value_types():
    assert canonical_expr(lit(1)) != canonical_expr(lit(1.0))
    assert canonical_expr(lit("1")) != canonical_expr(lit(1))


def test_scan_fingerprint_sensitivity():
    base = scan_fingerprint("lineitem", 7, canonical_expr(make_pred(), "l"))
    assert base == scan_fingerprint(
        "lineitem", 7, canonical_expr(make_pred(), "l")
    )
    # Data version bump.
    assert base != scan_fingerprint(
        "lineitem", 8, canonical_expr(make_pred(), "l")
    )
    # Different table.
    assert base != scan_fingerprint(
        "orders", 7, canonical_expr(make_pred(), "l")
    )
    # Changed predicate constant.
    changed = col("l.l_quantity").gt(lit(25)) & col("l.l_shipdate").le(
        date("1995-03-15")
    )
    assert base != scan_fingerprint(
        "lineitem", 7, canonical_expr(changed, "l")
    )


def test_filter_fingerprint_sensitivity():
    pred = canonical_expr(make_pred(), "l")
    base = filter_fingerprint(
        "lineitem", 7, pred, ("l_orderkey",), "bloom", "fpp=0.01"
    )

    def variant(**kw):
        args = dict(
            table="lineitem",
            version=7,
            predicate=pred,
            key_columns=("l_orderkey",),
            kind="bloom",
            params="fpp=0.01",
        )
        args.update(kw)
        return filter_fingerprint(**args)

    assert base == variant()
    assert base != variant(version=8)
    assert base != variant(key_columns=("l_partkey",))
    assert base != variant(key_columns=("l_orderkey", "l_partkey"))
    assert base != variant(kind="exact")
    assert base != variant(params="fpp=0.05")
    assert base != variant(predicate=canonical_expr(None))


@pytest.fixture()
def versioned_catalog():
    t = Table.from_pydict("t", {"k": [1, 2, 3]})
    return Catalog({"t": t})


def test_same_query_same_prefilter_fingerprint(tiny_catalog):
    """The headline property: rebuilding the same TPC-H query from
    scratch (a fresh AST, as a new session would) yields the same
    whole-query prefilter fingerprint."""
    cache = FilterCache()

    def fp():
        spec = get_query(5, sf=0.003)  # fresh spec objects every call
        qcache = build_query_cache(spec, tiny_catalog, cache)
        assert qcache.covers([r.alias for r in spec.relations])
        return qcache.prefilter_fp("predtrans", TransferConfig())

    assert fp() == fp()


def test_prefilter_fingerprint_sensitivity(tiny_catalog):
    cache = FilterCache()
    spec = get_query(5, sf=0.003)
    qcache = build_query_cache(spec, tiny_catalog, cache)
    assert qcache.edges == plan_parts(spec)[1]

    base = qcache.prefilter_fp("predtrans", TransferConfig())
    # Different strategy.
    assert base != qcache.prefilter_fp("yannakakis", TransferConfig())
    # Different transfer parameters (fpp).
    assert base != qcache.prefilter_fp("predtrans", TransferConfig(fpp=0.05))
    # Different edge set.
    fewer = dataclasses.replace(spec, edges=spec.edges[:-1])
    assert base != build_query_cache(fewer, tiny_catalog, cache).prefilter_fp(
        "predtrans", TransferConfig()
    )


def test_version_bump_changes_alias_keys(versioned_catalog):
    t = Table.from_pydict("lineitem", {"k": [1]})
    versioned_catalog.register(t, "lineitem")
    v1 = versioned_catalog.data_version("lineitem")
    versioned_catalog.register(t, "lineitem")
    v2 = versioned_catalog.data_version("lineitem")
    assert v2 > v1  # monotonic bump on replacement

    # Scoped children never version derived registrations.
    scoped = versioned_catalog.scoped()
    scoped.register(t, "derived")
    assert scoped.data_version("derived") is None
    assert scoped.data_version("lineitem") == v2

    # The bump flows into distinct fingerprints.
    assert scan_fingerprint("lineitem", v1, "none") != scan_fingerprint(
        "lineitem", v2, "none"
    )


# ----------------------------------------------------------------------
# Drawn trees over every node type
# ----------------------------------------------------------------------
# Small pools, so that independently drawn trees are often equal.  No
# two constants compare equal across types (1 == 1.0 == True would make
# equal trees whose forms rightly differ).
_VALUES = st.one_of(
    st.integers(-1, 1), st.sampled_from([0.5, -1.5, "s", "a,b)", "x'y"])
)


def _leaves(alias: str) -> dict:
    names = st.sampled_from(["x", "y", f"{alias}.x", f"{alias}.y", "z.x"])
    return {
        N.ColumnRef: st.builds(N.ColumnRef, names),
        N.Literal: st.builds(N.Literal, _VALUES),
        N.DateLiteral: st.builds(N.DateLiteral, st.sampled_from(["1994-01-01", "1995-06-30"])),
        N.ScalarRef: st.builds(N.ScalarRef, st.sampled_from(["t", "u"]), st.just("v")),
    }


def _inner(kids) -> dict:
    flag = st.booleans()
    return {
        N.Comparison: st.builds(N.Comparison, st.sampled_from(["==", "<"]), kids, kids),
        N.Between: st.builds(N.Between, kids, kids, kids),
        N.InSet: st.builds(N.InSet, kids, st.lists(_VALUES, max_size=2).map(tuple)),
        N.Like: st.builds(N.Like, kids, st.sampled_from(["a%", "b"]), flag),
        N.IsNull: st.builds(N.IsNull, kids, flag),
        N.And: st.builds(N.And, kids, kids),
        N.Or: st.builds(N.Or, kids, kids),
        N.Not: st.builds(N.Not, kids),
        N.Arithmetic: st.builds(N.Arithmetic, st.sampled_from(["+", "*"]), kids, kids),
        N.Case: st.builds(
            N.Case,
            st.lists(st.tuples(kids, kids), min_size=1, max_size=2).map(tuple),
            kids,
        ),
        N.Year: st.builds(N.Year, kids),
        N.Substr: st.builds(N.Substr, kids, st.integers(1, 2), st.integers(1, 2)),
    }


def _trees(alias: str):
    return st.recursive(
        st.one_of(*_leaves(alias).values()),
        lambda kids: st.one_of(*_inner(kids).values()),
        max_leaves=5,
    )


_TREES = {alias: _trees(alias) for alias in ("l1", "l2")}
_NODE_TYPES = {
    obj for obj in vars(N).values() if isinstance(obj, type) and issubclass(obj, N.Expr)
} - {N.Expr}


def _stripped(expr: N.Expr, alias: str) -> N.Expr:
    return expr.map(
        lambda node: N.ColumnRef(strip_alias(node.name, alias))
        if isinstance(node, N.ColumnRef)
        else node
    )


def test_drawn_trees_cover_every_node_type():
    assert set(_leaves("a")) | set(_inner(st.nothing())) == _NODE_TYPES


def _field_types(cls: type) -> list:
    hints = typing.get_type_hints(cls)
    return [hints[f.name] for f in dataclasses.fields(cls)]


@st.composite
def _one_node_changed(draw, tree: N.Expr) -> N.Expr:
    """``tree`` with one node rebuilt: one field drawn afresh, or its
    field values under another node class with fields of those types."""
    nodes = list(tree.walk())
    target = nodes[draw(st.integers(0, len(nodes) - 1))]
    values = [getattr(target, f.name) for f in dataclasses.fields(target)]
    others = sorted(
        (c for c in _NODE_TYPES - {type(target)} if _field_types(c) == _field_types(type(target))),
        key=lambda c: c.__name__,
    )
    if others and draw(st.booleans()):
        changed = draw(st.sampled_from(others))(*values)
    else:
        i = draw(st.integers(0, len(values) - 1))
        value = values[i]
        if isinstance(value, N.Expr):
            values[i] = draw(st.one_of(*_leaves("l1").values()))
        elif isinstance(value, bool):
            values[i] = not value
        elif isinstance(value, tuple):
            values[i] = draw(st.sampled_from([(), value[:-1], value + value[-1:]]))
        elif isinstance(value, str):
            values[i] = draw(st.sampled_from(["x", "l1.y", "s", "==", "+", "a%", "t"]))
        else:
            values[i] = draw(_VALUES)
        changed = type(target)(*values)
    return tree.map(lambda node: changed if node is target else node)


@st.composite
def _tree_pairs(draw):
    """Two trees and the second one's alias: independent draws, or one
    tree and a one-node change of it."""
    a = draw(_TREES["l1"])
    if draw(st.booleans()):
        return a, draw(_TREES["l2"]), "l2"
    return a, draw(_one_node_changed(a)), "l1"


@settings(max_examples=400, deadline=None)
@given(_tree_pairs())
def test_forms_equal_iff_stripped_trees_equal(pair):
    a, b, alias = pair
    same_tree = _stripped(a, "l1") == _stripped(b, alias)
    assert same_tree == (canonical_expr(a, "l1") == canonical_expr(b, alias))


@settings(max_examples=200, deadline=None)
@given(_TREES["l1"])
def test_realiased_tree_keeps_its_form(a):
    """The same tree over another alias serializes identically once
    each form strips its own alias."""
    b = a.map(
        lambda node: N.ColumnRef("l2." + node.name[3:])
        if isinstance(node, N.ColumnRef) and node.name.startswith("l1.")
        else node
    )
    assert canonical_expr(a, "l1") == canonical_expr(b, "l2")
