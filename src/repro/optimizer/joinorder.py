"""Greedy left-deep join ordering.

Stands in for the paper's Apache Calcite optimizer: produces one
reasonable left-deep order per query, deterministically, from input
cardinalities and the catalog's distinct counts.  The runner calls it
once per query block, right after the scan, with post-local-predicate
sizes, so the plan is fixed before transfer as in the paper (§3.3) and
every strategy joins in the same order.  Nothing re-plans after
transfer.

A step's estimate treats all the equalities that join a new relation
``R`` to the joined set as one composite key.  On the joined side, key
columns that edges inside the joined set already equate are one class,
counted once at its smallest distinct count: after ``s.suppkey =
ps.suppkey``, ``l.suppkey = s.suppkey AND l.suppkey = ps.suppkey`` is
one key column, not two independent ones.  Each side's key NDV is the
product over its columns (or classes), capped at the side's rows, and
the estimate is ``est × |R| / max(NDV_joined, NDV_R)``.  For a single
equality that is the textbook formula.

Ordering constraints for non-inner edges: the syntactic right side of a
``left``/``semi``/``anti`` edge may only enter the order once its left
side is already joined (the executor probes with the accumulated
intermediate, which must hold the preserved side).
"""

from __future__ import annotations

import math

import networkx as nx

from ..errors import PlanError
from ..plan.joingraph import edge_keys_for
from .cardinality import NdvLookup, estimate_join_rows


def _restricted_rights(graph: nx.Graph) -> dict[str, str]:
    """Alias → required-predecessor for right sides of non-inner edges."""
    out: dict[str, str] = {}
    for u, v, data in graph.edges(data=True):
        if data["how"] == "inner":
            continue
        left = data["syntactic_left"]
        right = v if left == u else u
        out[right] = left
    return out


def greedy_join_order(
    graph: nx.Graph,
    sizes: dict[str, int],
    ndv: NdvLookup,
) -> list[str]:
    """Pick a left-deep join order greedily by estimated intermediate size.

    Each connected component is ordered independently (starting from its
    smallest eligible relation, repeatedly appending the connected
    relation minimizing the estimated next intermediate); components are
    then concatenated smallest-first — the runner cross-joins them in
    this sequence, so small components pair up before the large ones
    multiply in.  ``ndv`` gives a column's catalog distinct count; a
    relation's is capped at its entry in ``sizes``.
    """
    aliases = sorted(graph.nodes)
    if len(aliases) == 1:
        return aliases
    components = [sorted(c) for c in nx.connected_components(graph)]
    components.sort(key=lambda c: (min(sizes[a] for a in c), c[0]))
    restricted = _restricted_rights(graph)
    order: list[str] = []
    for component in components:
        if len(component) == 1:
            order.extend(component)
            continue
        order.extend(
            _order_component(
                graph.subgraph(component), sizes, ndv, restricted, component
            )
        )
    return order


def _order_component(
    graph: nx.Graph,
    sizes: dict[str, int],
    ndv: NdvLookup,
    restricted: dict[str, str],
    aliases: list[str],
) -> list[str]:
    """Greedy order of one connected component."""
    start_candidates = sorted(
        (a for a in aliases if a not in restricted),
        key=lambda a: (sizes[a], a),
    )
    if not start_candidates:
        raise PlanError("every relation is the right side of a non-inner join")
    # A start vertex can deadlock (e.g. its only neighbours are restricted
    # rights whose left sides are unreachable from it); fall back to the
    # next-smallest start until one admits a complete order.
    last_error: PlanError | None = None
    for start in start_candidates:
        try:
            return _greedy_from(graph, sizes, ndv, restricted, start, aliases)
        except PlanError as exc:
            last_error = exc
    raise last_error


def _greedy_from(
    graph: nx.Graph,
    sizes: dict[str, int],
    ndv: NdvLookup,
    restricted: dict[str, str],
    current: str,
    aliases: list[str],
) -> list[str]:
    order = [current]
    walk = _Walk(graph, sizes, ndv, current)

    while len(order) < len(aliases):
        best: tuple[float, str] | None = None
        for alias in aliases:
            if alias in walk.joined:
                continue
            if not any(n in walk.joined for n in graph.neighbors(alias)):
                continue
            if alias in restricted and restricted[alias] not in walk.joined:
                continue
            key = (walk.estimate(alias), alias)
            if best is None or key < best:
                best = key
        if best is None:
            raise PlanError(
                "join component deadlocked by non-inner ordering "
                f"constraints; joined so far: {sorted(walk.joined)}"
            )
        walk.add(best[1], best[0])
        order.append(best[1])
    return order


def step_estimates(
    graph: nx.Graph, sizes: dict[str, int], ndv: NdvLookup, order: list[str]
) -> dict[str, float]:
    """Each joined relation's step estimate along ``order``: the
    estimated intermediate size right after it joins, the number
    :func:`greedy_join_order` chose it by.  A component's first
    relation joins nothing and has none."""
    estimates: dict[str, float] = {}
    for component in nx.connected_components(graph):
        steps = [a for a in order if a in component]
        walk = _Walk(graph, sizes, ndv, steps[0])
        for alias in steps[1:]:
            estimates[alias] = walk.estimate(alias)
            walk.add(alias, estimates[alias])
    return estimates


class _Walk:
    """A left-deep order being built: the joined relations, the classes
    of key columns their edges equate (a union-find; a column no such
    edge touches is its own class) and their estimated join size."""

    def __init__(
        self, graph: nx.Graph, sizes: dict[str, int], ndv: NdvLookup, start: str
    ) -> None:
        self.graph, self.sizes, self.ndv = graph, sizes, ndv
        self.joined = {start}
        self.rows = float(sizes[start])
        self._parent: dict[str, str] = {}

    def _find(self, column: str) -> str:
        while (up := self._parent.get(column, column)) != column:
            column = up
        return column

    def estimate(self, alias: str) -> float:
        """Estimated intermediate size after joining ``alias``."""
        graph, sizes, ndv = self.graph, self.sizes, self.ndv
        how = _edge_kind(graph, self.joined, alias)
        if how in ("semi", "anti"):
            return self.rows  # upper bound: probe side can only shrink
        joined_ndvs: dict[str, int] = {}  # class representative -> NDV
        alias_ndvs: dict[str, int] = {}  # alias column -> NDV
        for other in graph.neighbors(alias):
            if other not in self.joined:
                continue
            for other_col, alias_col in edge_keys_for(graph, other, alias):
                cls = self._find(other_col)
                count = min(ndv(other, other_col), sizes[other])
                joined_ndvs[cls] = min(joined_ndvs.get(cls, count), count)
                alias_ndvs[alias_col] = min(ndv(alias, alias_col), sizes[alias])
        est = estimate_join_rows(
            self.rows,
            float(sizes[alias]),
            min(int(self.rows) + 1, math.prod(joined_ndvs.values())),
            min(sizes[alias], math.prod(alias_ndvs.values())),
        )
        if how == "left":
            est = max(est, self.rows)  # every preserved row survives
        return est

    def add(self, alias: str, est: float) -> None:
        """Join ``alias``, whose step estimate is ``est``."""
        for other in self.graph.neighbors(alias):
            if other in self.joined:
                for a, b in edge_keys_for(self.graph, other, alias):
                    self._parent[self._find(a)] = self._find(b)
        self.joined.add(alias)
        self.rows = max(est, 1.0)


def _edge_kind(graph: nx.Graph, joined: set[str], alias: str) -> str:
    kinds = {
        graph.edges[other, alias]["how"]
        for other in graph.neighbors(alias)
        if other in joined
    }
    non_inner = kinds - {"inner"}
    if len(non_inner) > 1:
        raise PlanError(f"mixed non-inner edges connecting {alias!r}")
    return non_inner.pop() if non_inner else "inner"
