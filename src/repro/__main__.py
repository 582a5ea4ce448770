"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``tpch``     Run TPC-H queries under one or more strategies;
             ``--analyze`` prints what every transfer edge did (shipped
             or skipped, keys in, rows probed, pass rate, bytes, ms),
             then each join's estimated vs. actual output rows and the
             join order.
``ssb``      Run SSB queries likewise.
``fig4``     Regenerate the paper's Figure 4 table at a chosen SF.
``q5``       Regenerate the Q5 case study (Tables 1–2, Figures 5–6).
``serve``    Serve the stock query registry over TCP (length-prefixed
             JSON frames) until SIGTERM, then drain gracefully.
``client``   One query / ping / stats against a running server, with
             typed errors and saturation backoff.
``stats``    Fetch a running server's ``METRICS``/``STATS`` frames and
             pretty-print them (``--prom`` dumps the raw Prometheus
             exposition for piping).
``trace``    Run one query locally with per-phase tracing and print
             the span tree (``--out`` appends the spans as JSON
             lines).
``check``    Statically validate registered query plans with the
             semantic analyzer (``repro.analysis``): resolves every
             column reference, infers dtypes through the whole plan,
             and prints structured ``REPxxx`` diagnostics.  Exits
             non-zero on any diagnostic (``--all`` is the default
             scope; name queries to narrow it).

Performance is measured by ``benchmarks/perf/run.py`` (contract:
``BENCHMARK.json``), not by this CLI.

``tpch`` and ``ssb`` execute through the process-wide cross-query
filter cache by default — repeated queries within one invocation hit
it — and accept ``--no-filter-cache`` to run the uncached executor
instead.  The cache lives for the process, so a fresh shell invocation
starts cold; a server's cache is reported by ``repro stats``.

``tpch`` and ``ssb`` also take ``--partition-rows``, which overrides
the storage chunk size behind zone-map pruning (results are
byte-identical at any size).  A query runs on one thread;
``serve --workers N`` runs N queries at once.

``tpch`` and ``ssb`` take the per-query resilience knobs:
``--timeout-ms`` (deadline; past it the query aborts with a typed
``QueryTimeout`` at the next cooperative checkpoint) and
``--memory-budget-mb`` (filter/materialization budget; exact filters
degrade to Bloom first — results stay byte-identical — then the query
aborts with ``MemoryBudgetExceeded``).

Query arguments accept single ids or comma-separated lists
(``--query 5``, ``--query 3,5,9``).  The cyclic / self-join /
cross-product extras are addressed by string id: TPC-H ``c1``–``c3``
(``--query 3,5,c1``) and SSB ``c.1``.

Examples::

    python -m repro tpch --sf 0.02 --query 3,5 --strategy predtrans
    python -m repro tpch --sf 0.1 --query 9 --strategy predtrans \
        --analyze --no-filter-cache
    python -m repro ssb --query 1.1,2.1 --no-filter-cache
    python -m repro fig4 --sf 0.05
    python -m repro q5 --sf 0.1
    python -m repro serve --sf 0.02 --port 7531 --workers 4 \
        --metrics-port 9090 --slow-query-ms 500
    python -m repro client --query 5 --strategy predtrans --timeout-ms 5000
    python -m repro stats --url 127.0.0.1:7531
    python -m repro trace --sf 0.02 --query q5 --strategy predtrans
    python -m repro check --all --sf 0.01
    python -m repro check q3 c1 ssb_q2_1 --json
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench.harness import (
    breakdown,
    format_breakdown,
    format_fig4,
    format_join_orders,
    format_join_sizes,
    Measurement,
    join_order_runtimes,
    join_size_table,
    run_suite,
    speedup_summary,
    time_query,
)
from .cache import default_filter_cache
from .core.runner import STRATEGIES, RunConfig
from .engine.stats import format_edges, format_joins
from .errors import QueryAborted
from .ssb import ALL_SSB_QUERY_IDS, generate_ssb, get_ssb_query
from .tpch import generate_tpch
from .tpch.queries import (
    BENCH_QUERY_IDS,
    CYCLIC_QUERY_IDS,
    Q5_JOIN_ORDERS,
    get_query,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sf", type=float, default=0.01, help="scale factor")
    parser.add_argument("--seed", type=int, default=0, help="generator seed")


def _add_analyze_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="after each query, print what every transfer edge did: "
        "shipped or skipped, keys in, rows probed, pass rate, bytes, ms; "
        "then each join's estimated vs. actual rows and the join order",
    )


def _add_cache_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-filter-cache",
        action="store_true",
        help="run the uncached executor (default: queries share the "
        "process-wide cross-query filter cache)",
    )


def _add_partition_arg(parser: argparse.ArgumentParser) -> None:
    """The storage chunk-size knob shared by ``tpch`` and ``ssb``."""
    parser.add_argument(
        "--partition-rows",
        type=int,
        default=None,
        dest="partition_rows",
        help="override the storage partition chunk size (rows) used "
        "for zone-map pruning",
    )


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    """Per-query deadline/memory-budget knobs shared by ``tpch`` and
    ``ssb``."""
    parser.add_argument(
        "--timeout-ms",
        type=float,
        default=None,
        dest="timeout_ms",
        help="per-query deadline in milliseconds; a query past it "
        "aborts with a typed QueryTimeout at the next checkpoint",
    )
    parser.add_argument(
        "--memory-budget-mb",
        type=float,
        default=None,
        dest="memory_budget_mb",
        help="per-query filter/materialization budget in MiB; exact "
        "filters degrade to Bloom first, then the query aborts with "
        "MemoryBudgetExceeded",
    )


def _run_config(args: argparse.Namespace) -> RunConfig:
    """``tpch``/``ssb``'s execution config: cached by default, plain on
    ``--no-filter-cache``; ``--partition-rows`` sets the storage chunk
    size and ``--timeout-ms`` / ``--memory-budget-mb`` the per-query
    resilience knobs."""
    kwargs: dict = {}
    if args.partition_rows is not None:
        # Invalid values (0, negatives) surface RunConfig's own
        # validation error rather than being silently dropped.
        kwargs["partition_rows"] = args.partition_rows
    if args.timeout_ms is not None:
        kwargs["timeout"] = args.timeout_ms / 1000.0
    if args.memory_budget_mb is not None:
        kwargs["memory_budget"] = int(args.memory_budget_mb * 2**20)
    if not args.no_filter_cache:
        kwargs["filter_cache"] = default_filter_cache()
    return RunConfig(**kwargs)


def _print_analysis(args: argparse.Namespace, m: Measurement) -> None:
    """``--analyze``: the measured run's transfer edges, one per line,
    then its joins (estimated vs. actual rows) and join orders."""
    if args.analyze:
        print(format_edges(m.stats, title=f"  transfer edges of {m.query} ({m.strategy})"))
        print(format_joins(m.stats, title=f"  joins of {m.query} ({m.strategy})"))
        print()


def _cmd_tpch(args: argparse.Namespace) -> int:
    catalog = generate_tpch(sf=args.sf, seed=args.seed)
    queries = list(args.query) if args.query else list(BENCH_QUERY_IDS)
    strategies = [args.strategy] if args.strategy else list(STRATEGIES)
    config = _run_config(args)
    aborted = 0
    for qid in queries:
        spec = get_query(qid, sf=args.sf)
        for strategy in strategies:
            try:
                m = time_query(
                    spec, catalog, strategy, repeats=args.repeats, config=config
                )
            except QueryAborted as exc:
                aborted += 1
                print(f"{'q' + str(qid):<4s} {strategy:12s} {exc.outcome}: {exc}")
                continue
            print(
                f"{'q' + str(qid):<4s} {strategy:12s} {m.seconds:9.4f}s  "
                f"rows={m.output_rows}  "
                f"prefiltered={m.stats.transfer.reduction():.1%}"
            )
            _print_analysis(args, m)
    return 1 if aborted else 0


def _cmd_ssb(args: argparse.Namespace) -> int:
    catalog = generate_ssb(sf=args.sf, seed=args.seed)
    queries = list(args.query) if args.query else list(ALL_SSB_QUERY_IDS)
    strategies = [args.strategy] if args.strategy else list(STRATEGIES)
    config = _run_config(args)
    aborted = 0
    for qid in queries:
        spec = get_ssb_query(qid)
        for strategy in strategies:
            try:
                m = time_query(
                    spec, catalog, strategy, repeats=args.repeats, config=config
                )
            except QueryAborted as exc:
                aborted += 1
                print(f"Q{qid:<4s} {strategy:12s} {exc.outcome}: {exc}")
                continue
            print(
                f"Q{qid:<4s} {strategy:12s} {m.seconds:9.4f}s  rows={m.output_rows}"
            )
            _print_analysis(args, m)
    return 1 if aborted else 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    catalog = generate_tpch(sf=args.sf, seed=args.seed)
    suite = run_suite(catalog, sf=args.sf, repeats=args.repeats)
    print(format_fig4(suite, title=f"Figure 4 (SF={args.sf})"))
    print(f"\npredtrans geomean speedup over: {speedup_summary(suite)}")
    return 0


def _cmd_q5(args: argparse.Namespace) -> int:
    catalog = generate_tpch(sf=args.sf, seed=args.seed)
    sizes = join_size_table(catalog, sf=args.sf)
    print(format_join_sizes(sizes, title=f"Q5 join sizes (SF={args.sf})"))
    print()
    parts = breakdown(catalog, sf=args.sf, repeats=args.repeats)
    print(format_breakdown(parts, title="Q5 phase breakdown"))
    print()
    times = join_order_runtimes(
        catalog, sf=args.sf, join_orders=Q5_JOIN_ORDERS, repeats=args.repeats
    )
    print(format_join_orders(times, title="Q5 join-order robustness"))
    return 0


def _parse_list(text: str) -> list[str]:
    """Split a comma-separated argument, dropping empty segments."""
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_query_ids(text: str) -> tuple[int | str, ...]:
    """argparse type for TPC-H query lists: ``"5"``, ``"3,5,9"`` or
    the cyclic extras by string id (``"3,c1"``)."""
    ids: list[int | str] = []
    for part in _parse_list(text):
        if part in CYCLIC_QUERY_IDS:
            ids.append(part)
            continue
        try:
            number = int(part)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"no TPC-H query {part!r}; valid: 1..22 and "
                f"{', '.join(CYCLIC_QUERY_IDS)}"
            ) from None
        if number not in range(1, 23):
            raise argparse.ArgumentTypeError(
                f"no TPC-H query {number}; valid: 1..22 and "
                f"{', '.join(CYCLIC_QUERY_IDS)}"
            )
        ids.append(number)
    if not ids:
        raise argparse.ArgumentTypeError("empty query list")
    return tuple(ids)


def _parse_ssb_ids(text: str) -> tuple[str, ...]:
    """argparse type for SSB query lists: ``"2.1"`` or ``"1.1,2.1,3.4"``."""
    ids = tuple(_parse_list(text))
    if not ids:
        raise argparse.ArgumentTypeError("empty query list")
    bad = [q for q in ids if q not in ALL_SSB_QUERY_IDS]
    if bad:
        raise argparse.ArgumentTypeError(
            f"no SSB query {bad[0]!r}; valid: {', '.join(ALL_SSB_QUERY_IDS)}"
        )
    return ids


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.protocol import DEFAULT_MAX_FRAME_BYTES
    from .service.server import ServerConfig, run_server

    max_frame = (
        int(args.max_frame_mb * 2**20)
        if args.max_frame_mb is not None
        else DEFAULT_MAX_FRAME_BYTES
    )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_frame_bytes=max_frame,
        max_timeout_ms=args.max_timeout_ms,
        default_timeout_ms=args.timeout_ms,
    )
    return run_server(
        sf=args.sf,
        seed=args.seed,
        workers=args.workers,
        max_pending=args.max_pending,
        config=config,
        metrics_port=args.metrics_port,
        slow_query_ms=args.slow_query_ms,
        slow_query_log=args.slow_query_log,
        trace_out=args.trace_out,
    )


def _normalize_query_name(name: str) -> str:
    """``5`` → ``q5`` convenience; registered names pass through."""
    return f"q{name}" if name.isdigit() else name


def _cmd_client(args: argparse.Namespace) -> int:
    from .errors import ReproError
    from .service.client import ReproClient

    try:
        with ReproClient(
            args.host, args.port, io_timeout=args.io_timeout
        ) as client:
            if args.ping:
                print(json.dumps(client.ping(), indent=1))
                return 0
            if args.stats:
                print(json.dumps(client.stats(), indent=1))
                return 0
            if not args.query:
                print("client: one of --query/--ping/--stats is required")
                return 2
            frame = client.query(
                _normalize_query_name(args.query),
                strategy=args.strategy,
                materialize=args.materialize,
                timeout_ms=args.timeout_ms,
                include_data=args.include_data,
                trace_id=args.trace_id,
            )
    except ReproError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.client_json:
        print(json.dumps(frame, indent=1))
        return 0
    stats = frame.get("stats") or {}
    print(
        f"{frame['query'] if 'query' in frame else args.query}: "
        f"{frame['rows']} rows in {stats.get('seconds', 0.0):.4f}s "
        f"[{stats.get('strategy', '?')}] digest={frame['digest'][:16]}…"
    )
    if args.include_data and frame.get("columns"):
        print("  " + " | ".join(frame["columns"]))
        for row in frame.get("data") or []:
            print("  " + " | ".join(str(v) for v in row))
        if frame.get("data_truncated"):
            print("  … (truncated)")
    return 0


def _parse_hostport(url: str) -> tuple[str, int]:
    """``HOST:PORT`` (or bare ``:PORT`` for localhost)."""
    host, sep, port = url.rpartition(":")
    if not sep or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {url!r}"
        )
    return (host or "127.0.0.1", int(port))


def _cmd_stats(args: argparse.Namespace) -> int:
    from .errors import ReproError
    from .service.client import ReproClient

    host, port = args.url
    metrics = None
    try:
        with ReproClient(host, port, io_timeout=args.io_timeout) as client:
            stats = client.stats()
            try:
                metrics = client.metrics()
            except ReproError:
                metrics = None  # pre-METRICS server: stats-only output
    except ReproError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.prom:
        if metrics is None:
            print("server exposes no METRICS frame", file=sys.stderr)
            return 1
        sys.stdout.write(metrics["text"])
        return 0
    if args.stats_json:
        print(
            json.dumps(
                {
                    "stats": stats,
                    "metrics": None if metrics is None else metrics["varz"],
                },
                indent=1,
            )
        )
        return 0
    engine = stats["engine"]
    server = stats["server"]
    cache = stats["cache"]
    meta = stats.get("meta", {})
    print(
        f"server {host}:{port} "
        f"(protocol {stats.get('protocol')}, sf={meta.get('sf')}, "
        f"draining={server['draining']})"
    )
    print(
        "  engine:  "
        f"submitted={engine.get('submitted', '?')} ok={engine['queries']} "
        f"degraded={engine['degraded']} timeouts={engine['timeouts']} "
        f"cancelled={engine['cancellations']} rejected={engine['rejected']} "
        f"budget={engine['budget_exceeded']} failures={engine['failures']}"
    )
    print(
        "  wire:    "
        f"connections={server['connections']} "
        f"(total {server['connections_total']}) "
        f"queries={server['queries_total']} "
        f"inflight={server['inflight']} pending={server['pending_jobs']} "
        f"protocol_errors={server['protocol_errors']}"
    )
    if cache:
        print(
            "  cache:   "
            f"hits={cache['hits']} misses={cache['misses']} "
            f"hit_rate={cache['hit_rate']:.1%} entries={cache['entries']} "
            f"bytes={cache['bytes']}"
        )
    if metrics is not None:
        fam = metrics["varz"].get("repro_query_seconds", {})
        for sample in fam.get("samples", []):
            if not sample["count"]:
                continue
            strategy = sample["labels"].get("strategy", "?")
            print(
                f"  latency[{strategy}]: "
                f"p50={sample['p50'] * 1e3:.1f}ms "
                f"p90={sample['p90'] * 1e3:.1f}ms "
                f"p99={sample['p99'] * 1e3:.1f}ms "
                f"max={sample['max'] * 1e3:.1f}ms "
                f"(n={sample['count']})"
            )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .core.runner import RunConfig, run_query
    from .context import QueryContext
    from .errors import ReproError
    from .obs.trace import (
        TraceSink,
        format_span_tree,
        mint_trace_id,
        spans_from_stats,
    )
    from .service.server import build_default_registry

    catalog, specs = build_default_registry(args.sf, args.seed)
    name = _normalize_query_name(args.query)
    spec = specs.get(name)
    if spec is None:
        print(
            f"unknown query {name!r}; registered: "
            f"{', '.join(sorted(specs))}",
            file=sys.stderr,
        )
        return 2
    trace_id = mint_trace_id()
    config = RunConfig(
        strategy=args.strategy or "predtrans",
        context=QueryContext.start(trace_id=trace_id),
    )
    try:
        result = run_query(spec, catalog, config=config)
    except ReproError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    spans = spans_from_stats(result.stats, trace_id=trace_id)
    print(format_span_tree(spans))
    if args.out:
        with TraceSink(args.out) as sink:
            sink.emit(spans)
        print(f"appended {len(spans)} spans to {args.out}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .analysis import analyze
    from .service.server import build_default_registry

    catalog, specs = build_default_registry(args.sf, args.seed)
    if args.queries:
        names = [_normalize_query_name(name) for name in args.queries]
        unknown = [name for name in names if name not in specs]
        if unknown:
            print(
                f"unknown query {unknown[0]!r}; registered: "
                f"{', '.join(sorted(specs))}",
                file=sys.stderr,
            )
            return 2
    else:
        names = sorted(specs)
    findings: dict[str, list[dict]] = {}
    total = 0
    for name in names:
        diags = analyze(specs[name], catalog)
        if diags:
            findings[name] = [d.as_dict() for d in diags]
            total += len(diags)
            if not args.check_json:
                print(f"{name}: {len(diags)} diagnostic(s)")
                for d in diags:
                    print(f"  {d}")
    if args.check_json:
        print(
            json.dumps(
                {
                    "checked": len(names),
                    "diagnostics_total": total,
                    "diagnostics": findings,
                },
                indent=1,
            )
        )
    elif total == 0:
        print(f"checked {len(names)} plan(s): all clean")
    else:
        print(f"checked {len(names)} plan(s): {total} diagnostic(s)")
    return 1 if total else 0


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Predicate transfer reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tpch = sub.add_parser("tpch", help="run TPC-H queries")
    _add_common(tpch)
    tpch.add_argument(
        "--query",
        type=_parse_query_ids,
        help='query id(s) 1-22 or cyclic c1-c3, e.g. "5" or "3,5,c1"',
    )
    tpch.add_argument("--strategy", choices=STRATEGIES)
    tpch.add_argument("--repeats", type=int, default=2)
    _add_analyze_flag(tpch)
    _add_cache_flag(tpch)
    _add_partition_arg(tpch)
    _add_resilience_args(tpch)
    tpch.set_defaults(func=_cmd_tpch)

    ssb = sub.add_parser("ssb", help="run SSB queries")
    _add_common(ssb)
    ssb.add_argument(
        "--query",
        type=_parse_ssb_ids,
        help='query id(s) like "2.1" or "1.1,2.1,3.4"',
    )
    ssb.add_argument("--strategy", choices=STRATEGIES)
    ssb.add_argument("--repeats", type=int, default=2)
    _add_analyze_flag(ssb)
    _add_cache_flag(ssb)
    _add_partition_arg(ssb)
    _add_resilience_args(ssb)
    ssb.set_defaults(func=_cmd_ssb)

    fig4 = sub.add_parser("fig4", help="regenerate Figure 4")
    _add_common(fig4)
    fig4.add_argument("--repeats", type=int, default=2)
    fig4.set_defaults(func=_cmd_fig4)

    q5 = sub.add_parser("q5", help="regenerate the Q5 case study")
    _add_common(q5)
    q5.add_argument("--repeats", type=int, default=2)
    q5.set_defaults(func=_cmd_q5)

    serve = sub.add_parser(
        "serve",
        help="serve the stock query registry over TCP until SIGTERM",
    )
    _add_common(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7531)
    serve.add_argument(
        "--workers", type=int, default=4, help="engine worker threads"
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=256,
        dest="max_pending",
        help="admission-control queue bound (beyond it clients get "
        "RETRY frames with a retry_after hint)",
    )
    serve.add_argument(
        "--max-frame-mb",
        type=float,
        default=None,
        dest="max_frame_mb",
        help="frame-size limit in MiB (default 4)",
    )
    serve.add_argument(
        "--timeout-ms",
        type=float,
        default=None,
        dest="timeout_ms",
        help="deadline applied to queries whose client sent none",
    )
    serve.add_argument(
        "--max-timeout-ms",
        type=float,
        default=60_000.0,
        dest="max_timeout_ms",
        help="ceiling client-supplied timeout_ms is clamped to",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        dest="metrics_port",
        help="also serve /metrics, /healthz and /varz over HTTP on "
        "this port (0 = ephemeral)",
    )
    serve.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        dest="slow_query_ms",
        help="log queries at or above this wall clock as JSON lines "
        "(rate-limited)",
    )
    serve.add_argument(
        "--slow-query-log",
        default=None,
        dest="slow_query_log",
        help="slow-query log path (default: stderr)",
    )
    serve.add_argument(
        "--trace-out",
        default=None,
        dest="trace_out",
        help="append per-query span trees as JSON lines here",
    )
    serve.set_defaults(func=_cmd_serve)

    client = sub.add_parser(
        "client", help="query / ping / stats against a running server"
    )
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=7531)
    client.add_argument(
        "--query",
        help='registered query name ("q3", "5", "c1", "ssb_q2_1")',
    )
    client.add_argument("--strategy", choices=STRATEGIES)
    client.add_argument(
        "--materialize", choices=("lazy", "eager"), default=None
    )
    client.add_argument(
        "--timeout-ms", type=float, default=None, dest="timeout_ms"
    )
    client.add_argument(
        "--io-timeout",
        type=float,
        default=60.0,
        dest="io_timeout",
        help="seconds to wait for any response before ConnectionLost",
    )
    client.add_argument(
        "--include-data",
        action="store_true",
        dest="include_data",
        help="ship result rows inline (server caps the row count)",
    )
    client.add_argument(
        "--trace-id",
        dest="trace_id",
        default=None,
        help="propagate this trace id (echoed on the response frame; "
        "shows up in server traces and the slow-query log)",
    )
    client.add_argument("--ping", action="store_true", help="liveness probe")
    client.add_argument(
        "--stats", action="store_true", help="engine/cache/server snapshot"
    )
    client.add_argument(
        "--json",
        dest="client_json",
        action="store_true",
        help="print the raw response frame as JSON",
    )
    client.set_defaults(func=_cmd_client)

    stats = sub.add_parser(
        "stats",
        help="fetch and pretty-print a server's METRICS/STATS frames",
    )
    stats.add_argument(
        "--url",
        type=_parse_hostport,
        required=True,
        help="server address as HOST:PORT",
    )
    stats.add_argument(
        "--io-timeout", type=float, default=10.0, dest="io_timeout"
    )
    stats.add_argument(
        "--prom",
        action="store_true",
        help="print the raw Prometheus exposition instead",
    )
    stats.add_argument(
        "--json",
        dest="stats_json",
        action="store_true",
        help="print the raw STATS + varz bodies as JSON",
    )
    stats.set_defaults(func=_cmd_stats)

    trace = sub.add_parser(
        "trace",
        help="run one query locally with tracing and print the span tree",
    )
    _add_common(trace)
    trace.add_argument(
        "--query",
        required=True,
        help='registered query name ("q3", "5", "c1", "ssb_q2_1")',
    )
    trace.add_argument("--strategy", choices=STRATEGIES, default=None)
    trace.add_argument(
        "--out", default=None, help="append the spans as JSON lines here"
    )
    trace.set_defaults(func=_cmd_trace)

    check = sub.add_parser(
        "check",
        help="statically validate registered query plans (REPxxx "
        "diagnostics; non-zero exit on any finding)",
    )
    _add_common(check)
    check.add_argument(
        "queries",
        nargs="*",
        help='registered query names ("q3", "5", "c1", "ssb_q2_1"); '
        "empty = every registered query",
    )
    check.add_argument(
        "--all",
        action="store_true",
        help="check every registered query (the default when no names "
        "are given; explicit for CI invocations)",
    )
    check.add_argument(
        "--json",
        dest="check_json",
        action="store_true",
        help="print the structured diagnostic report as JSON",
    )
    check.set_defaults(func=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
