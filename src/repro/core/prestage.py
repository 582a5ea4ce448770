"""Deferred pre-stages: predicate transfer *into* a grouped subquery.

A decorrelated subquery runs as a pre-stage whose output the outer
block joins like a base relation (paper §3.4, :mod:`repro.plan.query`).
Run first, a grouped stage aggregates its whole input before any of the
outer block's predicates exist, although the outer join keeps only the
groups whose key some surviving outer row carries.

A semi-join on a group key commutes with ``GROUP BY``: removing every
input row whose key is not in a set ``K`` removes exactly the groups
whose key is not in ``K`` and leaves every other group's aggregates
unchanged.  So a stage can run *after* the outer block's transfer phase
and pre-filter its input with the outer survivors' keys (Yannakakis'
reduction carried through an aggregate; the magic-sets rewrite does the
same for SQL).

Which stages are deferred
-------------------------
:func:`plan_deferrals` decides from the plan and the strategy alone —
no knob.  Only ``predtrans`` and ``yannakakis`` defer, and a stage is
deferred when all of these hold:

* its post pipeline is one ``Aggregate`` with at least one key,
  followed only by ``Filter`` operators (HAVING);
* exactly one relation of the consuming spec reads its output, and
  nothing else does: no later stage and no ``ScalarRef``;
* every edge touching that relation is ``inner`` or ``semi``;
* some edge's stage-side key is a group key whose expression is a plain
  column of one stage relation — the *seed edge*;
* that edge's neighbour lies in a component of the rest of the join
  graph (the consumer without its deferred relations) that holds a
  local predicate or a non-deferred stage's output, so its survivors
  can be a proper subset.

Why it is sound: every edge at the stage relation is an inner or semi
equi-join, so a stage row whose key no neighbour survivor carries joins
nothing, and transfer over a subgraph only drops rows that cannot join
within it.  Filters have no false negatives; a Bloom false positive
only keeps a group the join then drops, and a NULL key never passes a
filter and never joins.  HAVING filters judge each group alone, so they
commute with the filter too.

How a deferred stage runs (:func:`repro.core.runner.run_query`): the
consumer scans its other relations and runs its schedule over the graph
they induce; :func:`build_seeds` builds one filter per seed edge whose
neighbour lost rows, through the shared kernel (cache, budget charge,
degradation and fault point included) and with an
:class:`~repro.engine.stats.EdgeStat` of its own in the consumer's
transfer stats; the stage runs with those filters, which
:func:`apply_seeds` probes on its group-key columns *after* its own
pre-filter phase — so its scan, filter and whole-prefilter cache
artifacts are an unseeded run's; finally the consumer scans the stage
output and runs its schedule once more over the whole graph from the
current survivors.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from ..engine.stats import EdgeStat
from ..expr.nodes import ColumnRef
from ..plan.query import Aggregate, Filter, QuerySpec, Stage
from ..plan.rewrite import scalar_tables
from .transfer import ExecContext, build_filter, probe_filter
from .transfer import Filter as ShippedFilter

#: The strategies whose schedule runs deferred pre-stages.
DEFERRING = ("predtrans", "yannakakis")


@dataclass(frozen=True)
class SeedEdge:
    """A consumer edge that pre-filters a deferred stage.

    ``neighbour``'s survivors build the filter on ``neighbour_keys``;
    the stage probes its relation ``stage_alias`` on ``stage_keys``, the
    columns its group keys read (both qualified, pairwise matched).
    """

    neighbour: str
    neighbour_keys: tuple[str, ...]
    stage_alias: str
    stage_keys: tuple[str, ...]


@dataclass(frozen=True)
class Deferral:
    """A pre-stage that runs after its consumer's transfer phase;
    ``relation`` is the consumer's alias of its output."""

    stage: Stage
    relation: str
    edges: tuple[SeedEdge, ...]


@dataclass(frozen=True)
class Seed:
    """A built seed filter, probed inside the stage on ``alias``'s
    ``key_columns``; ``edge`` lives in the consumer's stats."""

    alias: str
    key_columns: tuple[str, ...]
    filt: ShippedFilter
    edge: EdgeStat


def plan_deferrals(spec: QuerySpec, strategy: str) -> list[Deferral]:
    """The pre-stages of ``spec`` that run deferred, in stage order."""
    if strategy not in DEFERRING:
        return []
    candidates: dict[str, tuple[str, list[SeedEdge]]] = {}
    for i, stage in enumerate(spec.pre_stages):
        found = _candidate(spec, i)
        if found is not None:
            candidates[stage.output] = found
    if not candidates:
        return []

    held = {relation for relation, _ in candidates.values()}
    kept = {s.output for s in spec.pre_stages} - set(candidates)
    rest = nx.Graph()
    rest.add_nodes_from(r.alias for r in spec.relations if r.alias not in held)
    rest.add_edges_from(
        (e.left, e.right)
        for e in spec.edges
        if e.left not in held and e.right not in held
    )
    selective = {
        r.alias
        for r in spec.relations
        if r.alias in rest and (r.predicate is not None or r.table in kept)
    }
    live: set[str] = set()
    for component in nx.connected_components(rest):
        if component & selective:
            live |= component

    out = []
    for stage in spec.pre_stages:
        if stage.output not in candidates:
            continue
        relation, edges = candidates[stage.output]
        seeding = tuple(e for e in edges if e.neighbour in live)
        if seeding:
            out.append(Deferral(stage, relation, seeding))
    return out


def _candidate(spec: QuerySpec, index: int) -> tuple[str, list[SeedEdge]] | None:
    """The consumer relation and seed edges of stage ``index``, when its
    shape and its readers allow deferring it (all but the last rule)."""
    stage = spec.pre_stages[index]
    post = stage.spec.post
    if not post or not isinstance(post[0], Aggregate) or not post[0].keys:
        return None
    if not all(isinstance(op, Filter) for op in post[1:]):
        return None
    readers = [r.alias for r in spec.relations if r.table == stage.output]
    if len(readers) != 1:
        return None
    if any(
        stage.output in _tables_read(later.spec)
        for later in spec.pre_stages[index + 1:]
    ) or stage.output in _scalar_reads(spec):
        return None
    (relation,) = readers
    touching = [e for e in spec.edges if relation in (e.left, e.right)]
    if any(e.how not in ("inner", "semi") for e in touching):
        return None

    aliases = {r.alias for r in stage.spec.relations}
    group = {
        k.name: k.expr.name
        for k in post[0].keys
        if isinstance(k.expr, ColumnRef)
        and k.expr.name.partition(".")[0] in aliases
    }
    edges = []
    for e in touching:
        if e.left == e.right:
            continue
        if e.left == relation:
            mine, theirs, neighbour = e.left_keys, e.right_keys, e.right
        else:
            mine, theirs, neighbour = e.right_keys, e.left_keys, e.left
        pairs = [
            (group[k], f"{neighbour}.{other}")
            for k, other in zip(mine, theirs)
            if k in group
        ]
        if not pairs:
            continue
        # One filter probes one stage relation: keep the pairs of the
        # first key's relation.
        alias = pairs[0][0].partition(".")[0]
        pairs = [p for p in pairs if p[0].partition(".")[0] == alias]
        edges.append(
            SeedEdge(
                neighbour,
                tuple(n for _, n in pairs),
                alias,
                tuple(s for s, _ in pairs),
            )
        )
    return (relation, edges) if edges else None


def _tables_read(spec: QuerySpec) -> set[str]:
    """Tables ``spec`` and its pre-stages read as relations."""
    out = {r.table for r in spec.relations}
    for stage in spec.pre_stages:
        out |= _tables_read(stage.spec)
    return out


def _scalar_reads(spec: QuerySpec) -> set[str]:
    """Tables a ``ScalarRef`` anywhere in ``spec`` or its stages reads."""
    out: set[str] = set()
    for expr in spec.expressions():
        out |= scalar_tables(expr)
    for stage in spec.pre_stages:
        out |= _scalar_reads(stage.spec)
    return out


def build_seeds(
    ctx: ExecContext,
    deferral: Deferral,
    kind: str,
    fpp: float,
    pass_index: int,
) -> list[Seed]:
    """The consumer's filters for one deferred stage: one per seed edge
    whose neighbour lost rows (a neighbour holding every row would ship
    a filter that removes nothing the join keeps)."""
    seeds = []
    for seed_edge in deferral.edges:
        alias = seed_edge.neighbour
        rows, table = ctx.rows[alias], ctx.tables[alias]
        if len(rows) == table.num_rows:
            continue
        edge = ctx.stats.transfer.new_edge(
            pass_index, alias, deferral.relation, seed_edge.neighbour_keys
        )
        edge.seeds = deferral.stage.output
        filt = build_filter(ctx, edge, alias, table, rows, kind, fpp)
        seeds.append(Seed(seed_edge.stage_alias, seed_edge.stage_keys, filt, edge))
    return seeds


def apply_seeds(ctx: ExecContext, seeds: list[Seed]) -> None:
    """Inside the stage: shrink each seeded relation's survivors to the
    rows whose group key passes the consumer's filter."""
    for seed in seeds:
        rows = ctx.rows[seed.alias]
        keep = probe_filter(
            ctx, seed.edge, seed.filt, ctx.tables[seed.alias], seed.key_columns, rows
        )
        if seed.edge.rows_passed < len(rows):
            ctx.rows[seed.alias] = rows[keep]
