"""Plan semantic analyzer: schema inference over a QuerySpec.

:func:`analyze` walks a :class:`~repro.plan.query.QuerySpec` against a
:class:`~repro.storage.catalog.Catalog` and returns every problem it
can prove statically, as structured
:class:`~repro.analysis.diagnostics.Diagnostic` objects — it never
throws on the first error.  The walk mirrors the execution pipeline:

1. decorrelated **pre-stages** are analyzed first and their inferred
   output schemas registered as derived tables (exactly how the runner
   registers stage results in a scoped catalog);
2. each **relation** resolves its table, qualifies the schema under its
   alias (the ``_qualified_mapping`` rule from ``core/runner.py``), and
   type-checks its scan predicate against *that alias alone*;
3. **join edges** are checked for alias existence, join kind, key
   arity, key resolution and key-dtype compatibility;
4. **residual predicates** type-check against the full joined schema;
5. the **post pipeline** threads the schema through
   aggregate/filter/project/sort/limit stages, so a sort key referring
   to a column the aggregate just replaced is caught;
6. every checked predicate is intersected, per operand, over the value
   ranges its conjuncts admit — the zone-map pruner's reading
   (:func:`repro.storage.partition.empty_operand`); an empty
   intersection is the ``REP112`` warning.

:func:`validate` is the raising wrapper, and the verdict of the
server's pre-admission gate.
"""

from __future__ import annotations

from ..engine.aggregate import _AGG_FUNCS, AggSpec
from ..errors import PlanValidationError
from ..expr import nodes as N
from ..plan.query import (
    JOIN_KINDS,
    Aggregate,
    Filter,
    JoinEdge,
    Limit,
    PostOp,
    Project,
    QuerySpec,
    Relation,
    Sort,
)
from ..storage.catalog import Catalog
from ..storage.column import DType
from ..storage.partition import empty_operand
from .diagnostics import ERROR, Diagnostic, diag
from .typecheck import ExprChecker, alias_env


class _ScalarTables:
    """Schema lookup for ScalarRef targets: pre-stage outputs first,
    then catalog tables (the runner's scoped-catalog resolution order).
    """

    def __init__(
        self, catalog: Catalog, derived: dict[str, dict[str, DType]]
    ) -> None:
        self._catalog = catalog
        self._derived = derived

    def get(self, name: str) -> dict[str, DType] | None:
        schema = self._derived.get(name)
        if schema is not None:
            return schema
        if name in self._catalog:
            return self._catalog.get(name).schema()
        return None


def analyze(spec: QuerySpec, catalog: Catalog) -> list[Diagnostic]:
    """Statically analyze ``spec``; returns all diagnostics found."""
    diags: list[Diagnostic] = []
    _analyze_spec(spec, catalog, {}, diags, "")
    return diags


def validate(spec: QuerySpec, catalog: Catalog) -> None:
    """Raise :class:`~repro.errors.PlanValidationError` on any
    error-severity diagnostic (warnings alone do not fail a plan)."""
    diags = analyze(spec, catalog)
    errors = [d for d in diags if d.severity == ERROR]
    if errors:
        raise PlanValidationError(
            f"plan {spec.name!r} failed validation with "
            f"{len(errors)} error(s); first: {errors[0]}",
            diagnostics=tuple(diags),
        )


def _analyze_spec(
    spec: QuerySpec,
    catalog: Catalog,
    derived: dict[str, dict[str, DType]],
    diags: list[Diagnostic],
    prefix: str,
) -> dict[str, DType]:
    """Analyze one spec level; returns its inferred output schema."""
    derived = dict(derived)
    for i, stage in enumerate(spec.pre_stages):
        schema = _analyze_spec(
            stage.spec,
            catalog,
            derived,
            diags,
            f"{prefix}pre_stages[{i}].spec.",
        )
        derived[stage.output] = schema

    scalars = _ScalarTables(catalog, derived)
    aliases = [rel.alias for rel in spec.relations]
    seen: set[str] = set()
    for i, alias in enumerate(aliases):
        if alias in seen:
            diags.append(
                diag(
                    "REP102",
                    f"duplicate relation alias {alias!r}",
                    f"{prefix}relations[{i}]",
                )
            )
        seen.add(alias)
    alias_set = frozenset(aliases)

    env: dict[str, DType] = {}
    opaque: set[str] = set()
    for i, rel in enumerate(spec.relations):
        _analyze_relation(
            rel,
            catalog,
            derived,
            scalars,
            env,
            opaque,
            diags,
            f"{prefix}relations[{i}]",
        )

    checker = ExprChecker(
        env, alias_set, scalars, diags, frozenset(opaque)
    )
    for i, edge_spec in enumerate(spec.edges):
        _analyze_edge(
            edge_spec, env, alias_set, opaque, checker, diags,
            f"{prefix}edges[{i}]",
        )
    for i, predicate in enumerate(spec.residuals):
        path = f"{prefix}residuals[{i}]"
        checker.check_predicate(predicate, path)
        _check_unsat(predicate, diags, path)

    if spec.join_order is not None:
        if sorted(spec.join_order) != sorted(aliases):
            diags.append(
                diag(
                    "REP116",
                    f"join_order {list(spec.join_order)!r} is not a "
                    f"permutation of the declared aliases "
                    f"{sorted(aliases)!r}",
                    f"{prefix}join_order",
                )
            )

    schema = dict(env)
    for i, op in enumerate(spec.post):
        schema = _apply_post_op(
            op,
            schema,
            alias_set,
            opaque,
            scalars,
            diags,
            f"{prefix}post[{i}]",
        )
    return schema


def _analyze_relation(
    rel: Relation,
    catalog: Catalog,
    derived: dict[str, dict[str, DType]],
    scalars: _ScalarTables,
    env: dict[str, DType],
    opaque: set[str],
    diags: list[Diagnostic],
    path: str,
) -> None:
    schema = derived.get(rel.table)
    if schema is None:
        if rel.table in catalog:
            schema = catalog.get(rel.table).schema()
        else:
            diags.append(
                diag(
                    "REP101",
                    f"relation {rel.alias!r} references unknown table "
                    f"{rel.table!r}",
                    path,
                )
            )
            opaque.add(rel.alias)
            return
    rel_env = alias_env(rel.alias, schema)
    env.update(rel_env)
    if rel.predicate is not None:
        # Scan predicates run against the single aliased table, so the
        # checking scope is that alias alone.
        checker = ExprChecker(
            rel_env, frozenset({rel.alias}), scalars, diags
        )
        pred_path = f"{path}.predicate"
        checker.check_predicate(rel.predicate, pred_path)
        _check_unsat(rel.predicate, diags, pred_path)


def _analyze_edge(
    edge_spec: JoinEdge,
    env: dict[str, DType],
    alias_set: frozenset[str],
    opaque: set[str],
    checker: ExprChecker,
    diags: list[Diagnostic],
    path: str,
) -> None:
    if edge_spec.how not in JOIN_KINDS:
        diags.append(
            diag(
                "REP105",
                f"unknown join kind {edge_spec.how!r} (expected one of "
                f"{', '.join(JOIN_KINDS)})",
                path,
            )
        )
    sides_ok = True
    for side in (edge_spec.left, edge_spec.right):
        if side not in alias_set:
            diags.append(
                diag(
                    "REP103",
                    f"join edge references unknown alias {side!r}",
                    path,
                )
            )
            sides_ok = False
    left_keys = tuple(edge_spec.left_keys)
    right_keys = tuple(edge_spec.right_keys)
    if not left_keys or len(left_keys) != len(right_keys):
        diags.append(
            diag(
                "REP106",
                f"join edge key lists must be equal-length and "
                f"non-empty (got {len(left_keys)} vs "
                f"{len(right_keys)})",
                path,
            )
        )
        return
    if not sides_ok:
        return
    for j, (lk, rk) in enumerate(zip(left_keys, right_keys)):
        ldt = _key_dtype(
            edge_spec.left, lk, env, opaque, diags,
            f"{path}.left_keys[{j}]",
        )
        rdt = _key_dtype(
            edge_spec.right, rk, env, opaque, diags,
            f"{path}.right_keys[{j}]",
        )
        if ldt is not None and rdt is not None and ldt is not rdt:
            diags.append(
                diag(
                    "REP107",
                    f"join key dtype mismatch: "
                    f"{edge_spec.left}.{lk} is {ldt.name} but "
                    f"{edge_spec.right}.{rk} is {rdt.name}",
                    f"{path}.left_keys[{j}]",
                )
            )
    if edge_spec.residual is not None:
        checker.check_predicate(edge_spec.residual, f"{path}.residual")


def _key_dtype(
    alias: str,
    key: str,
    env: dict[str, DType],
    opaque: set[str],
    diags: list[Diagnostic],
    path: str,
) -> DType | None:
    if alias in opaque:
        return None
    qualified = f"{alias}.{key}"
    dtype = env.get(qualified)
    if dtype is None:
        diags.append(
            diag(
                "REP104",
                f"join key {qualified!r} does not resolve",
                path,
            )
        )
    return dtype


def _apply_post_op(
    op: PostOp,
    schema: dict[str, DType],
    alias_set: frozenset[str],
    opaque: set[str],
    scalars: _ScalarTables,
    diags: list[Diagnostic],
    path: str,
) -> dict[str, DType]:
    checker = ExprChecker(
        schema, alias_set, scalars, diags, frozenset(opaque)
    )
    if isinstance(op, Aggregate):
        return _apply_aggregate(op, checker, path)
    if isinstance(op, Filter):
        pred_path = f"{path}.predicate"
        checker.check_predicate(op.predicate, pred_path)
        _check_unsat(op.predicate, diags, pred_path)
        return schema
    if isinstance(op, Project):
        out: dict[str, DType] = {}
        for j, (name, expr) in enumerate(op.outputs):
            info = checker.infer(expr, f"{path}.outputs[{j}]")
            out[name] = info.dtype or DType.INT64
        return out
    if isinstance(op, Sort):
        for j, (name, direction) in enumerate(op.by):
            if name not in schema:
                diags.append(
                    diag(
                        "REP111",
                        f"sort key {name!r} is not in the stage schema",
                        f"{path}.by[{j}]",
                    )
                )
            if direction not in ("asc", "desc"):
                diags.append(
                    diag(
                        "REP111",
                        f"bad sort direction {direction!r} (expected "
                        f"'asc' or 'desc')",
                        f"{path}.by[{j}]",
                    )
                )
        return schema
    if isinstance(op, Limit):
        return schema
    diags.append(
        diag(
            "REP111",
            f"unknown post operator {type(op).__name__!r}",
            path,
        )
    )
    return schema


def _apply_aggregate(
    op: Aggregate, checker: ExprChecker, path: str
) -> dict[str, DType]:
    out: dict[str, DType] = {}
    for j, key in enumerate(op.keys):
        info = checker.infer(key.resolved_expr(), f"{path}.keys[{j}]")
        out[key.name] = info.dtype or DType.INT64
    for j, agg in enumerate(op.aggs):
        out[agg.name] = _check_agg(
            agg, checker, f"{path}.aggs[{j}]", checker.diags
        )
    return out


def _check_agg(
    agg: AggSpec,
    checker: ExprChecker,
    path: str,
    diags: list[Diagnostic],
) -> DType:
    if agg.func not in _AGG_FUNCS:
        diags.append(
            diag(
                "REP110",
                f"unknown aggregate function {agg.func!r}",
                path,
            )
        )
        return DType.INT64
    if agg.func == "count_star":
        return DType.INT64
    if agg.input is None:
        diags.append(
            diag(
                "REP110",
                f"aggregate {agg.func!r} requires an input expression",
                path,
            )
        )
        return DType.INT64
    checker.infer(agg.input, f"{path}.input")
    if agg.func in ("count", "count_distinct"):
        return DType.INT64
    # sum/avg/min/max all materialize float64 output columns.
    return DType.FLOAT64


def _check_unsat(
    predicate: N.Expr, diags: list[Diagnostic], path: str
) -> None:
    operand = empty_operand(predicate)
    if operand is not None:
        diags.append(
            diag(
                "REP112",
                f"constraints on {operand!r} intersect to an empty domain; "
                f"the predicate can never select a row",
                path,
            )
        )
