"""The five workloads, and the three that run in this process.

``tpch_predtrans``, ``tpch_nopredtrans`` and ``transfer_adverse`` run
here: one caller, closed loop, whole passes over a fixed query list.
``serve_mixed`` and ``serve_ingest`` drive a server child process over
its wire protocol (``serving.py``).  Every run is set-up (data generated
from the seed in-process, never cached by the harness), an untimed
warm-up, the timed section, then the correctness check — which stays
outside every metric.

Every workload reports the same end-to-end metrics (``BENCHMARK.json``
holds one list); what each means per workload is in ``README.md`` and
in the ``detail`` block of a run, under the workload's own names
(``suite_s``, ``repeat_p50_ms``, ``ingest_p50_ms``...).
"""

from __future__ import annotations

import dataclasses
import gc
import math
import multiprocessing
import resource
import sys
import time
import traceback
from dataclasses import dataclass

# ``run_query`` is looked up on the module at each call: the tracer
# patches ``repro.*`` namespaces only, so a name bound here would stay
# untraced.
from repro.core import runner
from repro.core.runner import RunConfig
from repro.tpch import BENCH_QUERY_IDS, generate_tpch, get_query

import layers
import metrics
from tracing import Span, Tracer, span_table

SMOKE_SF = 0.02

#: Join graphs run with every local predicate stripped.
ADVERSE_IDS = (3, 5, 7, 12, 14, "c1")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "inprocess" | "serve"
    sf: float
    strategy: str = "predtrans"
    adverse: bool = False
    ingest: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "tpch_predtrans",
            "Paper's headline path: 20 TPC-H queries under predicate transfer at "
            "SF 0.5; filters and core.transfer do most of the work, cache and "
            "service none.",
            "inprocess", 0.5, strategy="predtrans",
        ),
        Workload(
            "tpch_nopredtrans",
            "Paper's baseline and the bypass twin: same queries with no "
            "pre-filter, so hashjoin/aggregate/view do all the work and a Bloom "
            "change must not move it.",
            "inprocess", 0.5, strategy="nopredtrans",
        ),
        Workload(
            "transfer_adverse",
            "Q3/Q5/Q7/Q12/Q14/c1 with local predicates stripped: every filter "
            "passes ~100 %, transfer is pure overhead; where a skip/adaptive "
            "policy shows its gain.",
            "inprocess", 0.5, strategy="predtrans", adverse=True,
        ),
        Workload(
            "serve_mixed",
            "Serving path at SF 0.25: 2 connections, 60 % exact repeats (whole "
            "prefilter cache hits), 40 % Zipf date-shifted variants that overflow "
            "the cache; wire+cache dominate.",
            "serve", 0.25,
        ),
        Workload(
            "serve_ingest",
            "Writes beside reads at SF 0.1: one connection reads, one loops a "
            "512-row orders+lineitem INGEST then 10 reads; appends force cache "
            "extensions and hold the lock.",
            "serve", 0.1, ingest=True,
        ),
    )
}


@dataclass
class RunRecord:
    """Everything one run measured."""

    workload: str
    seed: int
    seconds: float
    trace: int
    sf: float
    metrics: dict[str, dict]
    detail: dict
    attempted: int
    failed: int

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def summary(self) -> dict:
        """The object the driver reads from the last line of stdout."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def gated(values: dict[str, float]) -> dict[str, dict]:
    """``values`` as the ``metrics`` object of an untraced run."""
    units = {m["name"]: m["unit"] for m in metrics.load_contract()["end_to_end"]}
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def per_layer(values: dict[str, float]) -> dict[str, dict]:
    """``values`` as the ``metrics`` object of a traced run; a layer
    that did no work reads 0."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, (unit, _) in layers.PER_LAYER.items()
    }


def rows_match(got, want) -> bool:
    """Two result row lists agree: same shape, every cell equal.

    Floats compare within 1e-9 relative: the strategies feed the same
    rows to an aggregate in different orders, so float sums differ in
    their last bits (TPC-H Q7 and Q14 do) and byte digests cannot be
    compared across strategies.
    """
    if len(got) != len(want):
        return False
    for row_a, row_b in zip(got, want):
        if len(row_a) != len(row_b):
            return False
        for a, b in zip(row_a, row_b):
            if isinstance(a, float) and isinstance(b, float):
                if not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif a != b:
                return False
    return True


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
def strip_predicates(spec):
    """The same join graph with no local predicate on any relation."""
    return dataclasses.replace(
        spec,
        relations=[dataclasses.replace(r, predicate=None) for r in spec.relations],
    )


def inprocess_specs(workload: Workload, sf: float) -> list:
    if workload.adverse:
        return [strip_predicates(get_query(q, sf=sf)) for q in ADVERSE_IDS]
    return [get_query(q, sf=sf) for q in BENCH_QUERY_IDS]


def _one_pass(specs: list, catalog, strategy: str, oracle: list | None) -> list[dict]:
    """Run every spec once.  Rows are pulled, and compared with the
    oracle pass's when there is one, outside the timing."""
    config = RunConfig(strategy=strategy, threads=1)
    out = []
    for i, spec in enumerate(specs):
        start = time.perf_counter()
        try:
            result = runner.run_query(spec, catalog, config=config)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            out.append({"query": spec.name, "seconds": time.perf_counter() - start,
                        "ok": False, "rows": None, "stats": None})
            continue
        seconds = time.perf_counter() - start
        rows = result.table.to_rows()
        record = {"query": spec.name, "seconds": seconds, "ok": True,
                  "rows": None, "stats": result.stats}
        if oracle is None:
            record["rows"] = rows
        else:
            want = oracle[i]["rows"]
            record["ok"] = want is not None and rows_match(rows, want)
        out.append(record)
    return out


def _oracle_child(sender, specs: list, catalog, strategy: str) -> None:
    sender.send(_one_pass(specs, catalog, strategy, None))
    sender.close()


def _phase_rows(records: list[dict], strategy: str) -> list[dict]:
    """The ``QueryStats`` phase split per query (Fig. 5's shape)."""
    rows = []
    for r in records:
        stats = r["stats"]
        if stats is None:
            continue
        rows.append({
            "query": r["query"], "strategy": strategy, "total_s": r["seconds"],
            "prefilter_s": stats.prefilter_seconds,
            "joinphase_s": stats.joinphase_seconds,
            "scan_s": stats.scan_seconds_total,
            "materialize_s": stats.materialize_seconds_total,
        })
    return rows


def run_inprocess(
    workload: Workload, seed: int, seconds: float, trace: int, smoke: bool
) -> tuple[RunRecord, list[Span]]:
    sf = SMOKE_SF if smoke else workload.sf
    other = "nopredtrans" if workload.strategy == "predtrans" else "predtrans"

    # Set-up: generate, then one untimed warm-up pass.  Meanwhile a
    # forked child (sharing the generated data copy-on-write, on the
    # second core) runs the same queries under the *other* strategy: the
    # two share no pre-filter code and must return the same rows, so its
    # results are the oracle.  Timing starts only after the child is
    # done, and the oracle's memory never counts towards this process's
    # peak.
    t0 = time.perf_counter()
    catalog = generate_tpch(sf=sf, seed=seed)
    datagen_s = time.perf_counter() - t0
    specs = inprocess_specs(workload, sf)
    sys.stdout.flush()
    fork = multiprocessing.get_context("fork")  # no thread exists yet
    receiver, sender = fork.Pipe(duplex=False)
    child = fork.Process(target=_oracle_child, args=(sender, specs, catalog, other))
    child.start()
    sender.close()
    try:
        t1 = time.perf_counter()
        _one_pass(specs, catalog, workload.strategy, None)
        gc.collect()
        setup_s = datagen_s + (time.perf_counter() - t1)
        oracle = receiver.recv()  # drained before the join below
    finally:
        child.join()
        receiver.close()

    passes: list[list[dict]] = []
    spans: list[Span] = []
    overhead = adverse_ratio = 0.0
    if trace:
        # One pass untraced, one traced: their ratio is the tracing
        # overhead, the traced one gives the layers.
        passes.append(_one_pass(specs, catalog, workload.strategy, oracle))
        gc.collect()
        tracer = Tracer()
        tracer.install(layers.TARGETS)
        try:
            traced = _one_pass(specs, catalog, workload.strategy, oracle)
        finally:
            tracer.uninstall()
        spans = tracer.drain()
        plain_s = sum(r["seconds"] for r in passes[0])
        overhead = sum(r["seconds"] for r in traced) / plain_s - 1.0
        checked = passes + [traced]
        if workload.adverse:
            # The no-transfer baseline on the same specs, timed alone in
            # this process like the pass it is compared with.
            gc.collect()
            baseline = _one_pass(specs, catalog, other, oracle)
            adverse_ratio = plain_s / sum(r["seconds"] for r in baseline)
            checked.append(baseline)
    else:
        # Whole passes that fit in the budget; the first always runs.
        start = time.perf_counter()
        while True:
            gc.collect()
            began = time.perf_counter()
            passes.append(_one_pass(specs, catalog, workload.strategy, oracle))
            now = time.perf_counter()
            if (now - start) + (now - began) > seconds:
                break
        checked = passes
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Per-query medians over the timed passes.
    medians_ms = [
        1e3 * metrics.percentile([p[i]["seconds"] for p in passes], 50.0)
        for i in range(len(specs))
    ]
    suite_s = sum(medians_ms) / 1e3
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
        "ops_per_s": len(specs) / suite_s,
        "typical_ms": metrics.geomean(medians_ms),
        # The heavier half, not the slowest query: one query timed once
        # or twice is hostage to page-fault cost on this box (the
        # stripped c1 spreads 27 % across runs, the half 6 %).
        "heavy_ms": metrics.geomean(sorted(medians_ms)[len(medians_ms) // 2:]),
    }

    attempted = sum(len(records) for records in checked)
    failed = sum(1 for records in checked for r in records if not r["ok"])

    # The oracle pass ran first in its process and beside the warm-up,
    # so its times (and the ratio to them) are rough; the traced run of
    # ``transfer_adverse`` measures ``core.adverse_ratio`` properly.
    other_s = sum(r["seconds"] for r in oracle)
    by_strategy = {workload.strategy: suite_s, other: other_s}
    rough_ratio = by_strategy["predtrans"] / by_strategy["nopredtrans"]
    detail = {
        "passes": len(passes),
        "queries": len(specs),
        "suite_s": suite_s,
        "query_ms_geomean": values["typical_ms"],
        "query_ms_heavy_half_geomean": values["heavy_ms"],
        "query_ms_max": max(medians_ms),
        "query_ms_p95": metrics.percentile(medians_ms, 95.0),
        "attempted_ops": attempted,
        "failed_ops": failed,
        "datagen_s": datagen_s,
        "oracle_strategy": other,
        "oracle_suite_s": other_s,
        "predtrans_vs_nopredtrans_rough": rough_ratio,
        "per_query_ms": {s.name: m for s, m in zip(specs, medians_ms)},
        "oracle_per_query_ms": {
            s.name: 1e3 * o["seconds"] for s, o in zip(specs, oracle)
        },
    }
    if trace:
        layer = layers.layer_metrics(spans)
        layer.update({
            "tpch.datagen_s": datagen_s,
            "tpch.rows_per_s": catalog.total_rows() / datagen_s,
            "core.adverse_ratio": adverse_ratio,
            "trace_overhead_frac": overhead,
        })
        detail["end_to_end_info"] = values
        detail["span_table"] = span_table(spans)
        detail["phases"] = _phase_rows(passes[0], workload.strategy) + _phase_rows(
            oracle, other
        )
        reported = per_layer(layer)
    else:
        reported = gated(values)
    record = RunRecord(
        workload.name, seed, seconds, trace, sf, reported, detail, attempted, failed
    )
    return record, spans
