"""Which functions the traced run wraps, and how spans become the
per-layer metrics declared in ``BENCHMARK.json``.

Layer names are the repo's package names (``tpch``, ``plan``,
``storage``, ``expr``, ``filters``, ``core``, ``engine``, ``cache``,
``service``, ``wire``).  Times come from spans around public functions;
work counts come from the same boundaries (a wrapper reads the sizes of
what went in and came out) or from the ``QueryStats`` that
``run_query`` returns.  A ratio whose denominator saw no work reads 0.
"""

from __future__ import annotations

import numpy as np

from tracing import Span, Target, outermost_seconds, self_times, sum_counts

#: name -> (unit, better).  The set and order of ``per_layer`` in
#: BENCHMARK.json; ``tests/test_names.py`` keeps the two equal.
PER_LAYER: dict[str, tuple[str, str]] = {
    "tpch.datagen_s": ("s", "lower"),
    "tpch.rows_per_s": ("rows/s", "higher"),
    "plan.plan_s_per_query": ("s", "lower"),
    "storage.scan_s": ("s", "lower"),
    "storage.partitions_pruned_frac": ("ratio", "higher"),
    "expr.eval_s": ("s", "lower"),
    "storage.materialize_s": ("s", "lower"),
    "storage.bytes_materialized": ("bytes", "lower"),
    "storage.concat_s": ("s", "lower"),
    "filters.hash_ns_per_key": ("ns/key", "lower"),
    "filters.bloom_build_ns_per_key": ("ns/key", "lower"),
    "filters.bloom_probe_ns_per_key": ("ns/key", "lower"),
    "filters.filter_bytes": ("bytes", "lower"),
    "filters.pass_frac": ("ratio", "lower"),
    "core.transfer_self_s": ("s", "lower"),
    "core.prefilter_reduction": ("ratio", "higher"),
    "core.edges_shipped": ("count", "lower"),
    "core.adverse_ratio": ("ratio", "lower"),
    "engine.join_s": ("s", "lower"),
    "engine.join_ns_per_input_row": ("ns/row", "lower"),
    "engine.join_input_rows": ("rows", "lower"),
    "engine.post_s": ("s", "lower"),
    "cache.hit_frac": ("ratio", "higher"),
    "cache.evictions": ("count", "lower"),
    "cache.extensions": ("count", "lower"),
    "cache.extension_rebuilds": ("count", "lower"),
    "cache.lookup_s": ("s", "lower"),
    "service.queue_wait_s": ("s", "lower"),
    "service.execute_s": ("s", "lower"),
    "service.rejected": ("count", "lower"),
    "service.retries": ("count", "lower"),
    "wire.decode_s": ("s", "lower"),
    "wire.digest_s": ("s", "lower"),
    "wire.encode_s": ("s", "lower"),
    "wire.bytes_per_response": ("bytes", "lower"),
    "wire.client_overhead_ms": ("ms", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}


# ----------------------------------------------------------------------
# Count hooks: read sizes at the boundary the span covers
# ----------------------------------------------------------------------
def _hashed(args, kwargs, result) -> dict[str, float]:
    return {"keys_hashed": len(result)}


def _built(args, kwargs, result) -> dict[str, float]:
    return {"bloom_keys_built": len(args[1])}


def _probed(args, kwargs, result) -> dict[str, float]:
    return {
        "bloom_rows_probed": len(args[1]),
        "bloom_rows_passed": int(np.count_nonzero(result)),
    }


def _query_counts(args, kwargs, result) -> dict[str, float]:
    """This call's own share of ``QueryStats`` (pre-stages are separate
    ``run_query`` calls and report theirs on their own spans)."""
    stats = result.stats
    transfer = stats.transfer
    return {
        "scan_s": stats.scan_seconds,
        "materialize_s": stats.materialize_seconds,
        "bytes_materialized": stats.bytes_materialized,
        "partitions_total": stats.partitions_total,
        "partitions_pruned": stats.partitions_pruned,
        "filter_bytes": transfer.filter_bytes,
        "rows_before": transfer.total_rows_before(),
        "rows_after": transfer.total_rows_after(),
        "edges_shipped": transfer.edges_traversed,
        "join_input_rows": sum(j.ht_rows + j.pr_rows for j in stats.joins),
    }


def _encoded(args, kwargs, result) -> dict[str, float]:
    if args[0].get("type") != "RESULT":
        return {}
    return {"result_frames": 1, "result_bytes": len(result)}


def _request_of_query(args, kwargs) -> str | None:
    """The wire request a pool thread's ``run_query`` call serves: the
    engine threads the client's trace id through the query context."""
    config = kwargs.get("config")
    context = getattr(config, "context", None)
    return getattr(context, "trace_id", None)


def _request_of_frame(result) -> str | None:
    return result.get("trace_id")


TARGETS: tuple[Target, ...] = (
    # plan / optimizer / analysis
    Target("repro.plan.joingraph", "build_join_graph", "plan.build_join_graph"),
    Target("repro.plan.rewrite", "fold_self_edges", "plan.fold_self_edges"),
    Target("repro.plan.rewrite", "resolve_scalars", "plan.resolve_scalars"),
    Target("repro.plan.pruning", "live_columns", "plan.live_columns"),
    Target("repro.optimizer.joinorder", "greedy_join_order", "optimizer.join_order"),
    Target("repro.analysis.analyzer", "analyze", "analysis.analyze"),
    # storage / expr
    Target("repro.storage.partition", "get_layout", "storage.get_layout"),
    Target("repro.storage.partition:PartitionLayout", "prune", "storage.prune"),
    Target("repro.storage.view", "materialize", "storage.materialize"),
    Target("repro.storage.table:Table", "concat", "storage.concat"),
    Target("repro.expr.eval", "evaluate", "expr.evaluate"),
    Target("repro.expr.eval", "evaluate_mask", "expr.evaluate_mask"),
    # filters
    Target("repro.filters.hashing", "mix64", "filters.mix64"),
    Target("repro.filters.hashing", "bloom_keys", "filters.bloom_keys", count=_hashed),
    Target(
        "repro.filters.hashcache:KeyHashCache", "bloom_keys", "filters.bloom_keys",
        count=_hashed,
    ),
    Target(
        "repro.filters.bloom:BloomFilter", "add_hashes", "filters.bloom_build",
        count=_built,
    ),
    Target(
        "repro.filters.bloom:BloomFilter", "contains_hashes", "filters.bloom_probe",
        count=_probed,
    ),
    # core
    Target("repro.core.ptgraph", "build_pt_graph", "core.build_pt_graph"),
    Target("repro.core.transfer", "run_transfer_rows", "core.transfer"),
    Target(
        "repro.core.runner", "run_query", "core.run_query",
        count=_query_counts, request_in=_request_of_query,
    ),
    # engine
    Target("repro.engine.hashjoin", "hash_join", "engine.hash_join"),
    Target("repro.engine.hashjoin", "cross_join", "engine.cross_join"),
    Target("repro.engine.aggregate", "group_aggregate", "engine.group_aggregate"),
    Target("repro.engine.sort", "sort_table", "engine.sort_table"),
    Target("repro.engine.sort", "limit", "engine.limit"),
    # cache
    Target("repro.cache.context", "build_query_cache", "cache.bind"),
    Target("repro.cache.store:FilterCache", "get", "cache.get"),
    Target("repro.cache.store:FilterCache", "put", "cache.put"),
    # service / wire
    Target("repro.service.engine:Engine", "submit", "service.submit"),
    Target("repro.service.engine:Engine", "ingest", "service.ingest"),
    Target(
        "repro.service.protocol", "decode_body", "wire.decode",
        request_out=_request_of_frame,
    ),
    Target("repro.service.protocol", "encode_frame", "wire.encode", count=_encoded),
    Target("repro.service.workload", "result_digest", "wire.digest"),
)

_PLAN = {t.name for t in TARGETS if t.name.split(".")[0] in ("plan", "optimizer", "analysis")}
_EXPR = {"expr.evaluate", "expr.evaluate_mask"}
_JOIN = {"engine.hash_join", "engine.cross_join"}
_POST = {"engine.group_aggregate", "engine.sort_table", "engine.limit"}
_CACHE = {"cache.get", "cache.put"}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def link_requests(spans: list[Span]) -> list[Span]:
    """Give each pool-thread ``run_query`` root the ``service.submit``
    span of its request as parent — the span that caused it."""
    submits = {
        s.request: s.id for s in spans if s.name == "service.submit" and s.request
    }
    return [
        s._replace(parent=submits[s.request])
        if s.parent is None and s.name == "core.run_query" and s.request in submits
        else s
        for s in spans
    ]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics that spans and their counts determine.

    The caller adds what only it can see (data generation, cache and
    engine counters read over the wire, client-side overhead, the
    traced-vs-untraced ratio); metrics missing from both read 0.
    Expects :func:`link_requests` to have run on a server's spans.
    """
    counts = sum_counts(spans)
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}

    def total(name: str) -> float:
        return sum(s.seconds for s in spans if s.name == name)

    def get(key: str) -> float:
        return counts.get(key, 0.0)

    # Top-level queries and, of those, the ones the engine served.
    queries = 0
    queue_wait = execute = 0.0
    for s in spans:
        if s.name != "core.run_query":
            continue
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is None:
            queries += 1
        elif parent.name == "service.submit":
            queries += 1
            queue_wait += s.start - parent.start
            execute += s.seconds

    join_s = outermost_seconds(spans, _JOIN)
    return {
        "plan.plan_s_per_query": _ratio(outermost_seconds(spans, _PLAN), queries),
        "storage.scan_s": get("scan_s"),
        "storage.partitions_pruned_frac": _ratio(
            get("partitions_pruned"), get("partitions_total")
        ),
        "expr.eval_s": outermost_seconds(spans, _EXPR),
        "storage.materialize_s": get("materialize_s"),
        "storage.bytes_materialized": get("bytes_materialized"),
        "storage.concat_s": outermost_seconds(spans, {"storage.concat"}),
        "filters.hash_ns_per_key": 1e9
        * _ratio(total("filters.bloom_keys"), get("keys_hashed")),
        "filters.bloom_build_ns_per_key": 1e9
        * _ratio(total("filters.bloom_build"), get("bloom_keys_built")),
        "filters.bloom_probe_ns_per_key": 1e9
        * _ratio(total("filters.bloom_probe"), get("bloom_rows_probed")),
        "filters.filter_bytes": get("filter_bytes"),
        "filters.pass_frac": _ratio(
            get("bloom_rows_passed"), get("bloom_rows_probed")
        ),
        "core.transfer_self_s": sum(
            selfs[s.id] for s in spans if s.name == "core.transfer"
        ),
        "core.prefilter_reduction": 1.0 - get("rows_after") / get("rows_before")
        if get("rows_before")
        else 0.0,
        "core.edges_shipped": get("edges_shipped"),
        "engine.join_s": join_s,
        "engine.join_ns_per_input_row": 1e9 * _ratio(join_s, get("join_input_rows")),
        "engine.join_input_rows": get("join_input_rows"),
        "engine.post_s": outermost_seconds(spans, _POST),
        "cache.lookup_s": outermost_seconds(spans, _CACHE),
        "service.queue_wait_s": queue_wait,
        "service.execute_s": execute,
        "wire.decode_s": total("wire.decode"),
        "wire.digest_s": total("wire.digest"),
        "wire.encode_s": total("wire.encode"),
        "wire.bytes_per_response": _ratio(get("result_bytes"), get("result_frames")),
    }
