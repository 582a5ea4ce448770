"""Exact work counters of the Figure 4 queries, against a committed record.

The 20 ``BENCH_QUERY_IDS`` run at SF 0.1, seed 1, cold (no filter
cache), under predicate transfer and under the no-transfer baseline.
Per query and strategy, the record pins the join order of every block,
the join input rows, the rows entering aggregates and sorts, and the
joins that left their probe side in place (pre-stages included); under
predicate transfer also the kind of every shipped edge (pre-stages
first, as ``--analyze`` lists them) and the rows probed by Bloom
filters and by presence bitmaps.  An ``adverse`` section pins the same
counters under predicate transfer for the join graphs of
``ADVERSE_IDS`` with every local predicate dropped.  An ``ingest``
section pins the bytes each of ``COMMITS`` commits of the serving
benchmark's batch (the first ``INGEST_ROWS`` rows of orders and
lineitem, decoded from their wire form) writes into column buffers,
after the queries have run; then the bytes of a commit of the batch
whose comments no row holds (their dictionaries must merge) and of one
more commit of the batch.  Each is a
function of (code, seed, SF) — no clock, no tracer — so the comparison
is ``==`` and has no noise.  A change that moves one of them either is
a bug or says so by rewriting the record:

    PYTHONPATH=src python tests/test_work_counters.py

and committing the diff beside the change that explains it.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.core.runner import RunConfig, run_query
from repro.engine.stats import QueryStats
from repro.service.server import decode_wire_table
from repro.service.workload import INGEST_TABLES
from repro.storage.catalog import Catalog
from repro.tpch import BENCH_QUERY_IDS, generate_tpch, get_query

SF, SEED = 0.1, 1
RECORD = pathlib.Path(__file__).with_name("work_counters_sf0.1_seed1.json")
STRATEGIES = ("predtrans", "nopredtrans")
#: Queries run with every ``Relation.predicate`` dropped (the benchmark's
#: transfer-adverse suite).
ADVERSE_IDS = (3, 5, 7, 12, 14, "c1")
#: The serving benchmark's INGEST batch, committed ``COMMITS`` times.
INGEST_ROWS, COMMITS = 512, 5
#: The STRING column of each ingest table given values no row holds.
NEW_VALUE_COLUMNS = {"orders": "o_comment", "lineitem": "l_comment"}

#: The single-key edges into ``lineitem`` that shipped Bloom filters
#: under the "never larger" size rule, and must now ship bitmaps.
CACHE_SIZED_EDGES = {
    "q8": ("p", "l"),
    "q9": ("p", "l"),
    "q17": ("p", "l"),
    "q18": ("o", "l"),
    "q21": ("s", "l1"),
}


def counters(stats: QueryStats, strategy: str) -> dict[str, object]:
    """The exact counters one query's statistics pin."""
    stages = list(stats.blocks())
    joins = [j for stage in stages for j in stage.joins]
    out: dict[str, object] = {
        "join_order": [f"{stage.query} {' '.join(stage.join_order)}" for stage in stages],
        "join_input_rows": sum(j.ht_rows + j.pr_rows for j in joins),
        "rows_aggregated": stats.total("rows_aggregated"),
        "rows_sorted": stats.total("rows_sorted"),
        "joins_kept": sum(j.probe_kept for j in joins),
    }
    if strategy == "predtrans":
        out["edges"] = [
            f"{stage.query} {e.pass_index} {e.src}->{e.dst} "
            f"{','.join(e.key_columns)} {e.kind}"
            for stage in stages
            for e in stage.transfer.shipped()
        ]
        out["bloom_probes"] = sum(s.transfer.probed("bloom") for s in stages)
        out["bitmap_probes"] = sum(s.transfer.probed("bitmap") for s in stages)
    return out


def _stripped(spec):
    return dataclasses.replace(
        spec,
        relations=[dataclasses.replace(r, predicate=None) for r in spec.relations],
    )


def ingest_counters(catalog: Catalog) -> dict[str, object]:
    """Bytes written into column buffers by each commit of the batch;
    then by a commit of the batch whose ``NEW_VALUE_COLUMNS`` hold values
    no row holds, and by one more commit of the batch; and the rows each
    ingest table holds at the end."""
    batch = {}
    for name in INGEST_TABLES:
        head = catalog.get(name).head(INGEST_ROWS)
        batch[name] = {c: head.column(c).to_pylist() for c in head.column_names}
    new_values = {
        name: payload | {
            NEW_VALUE_COLUMNS[name]: [
                f"{v} (new)" for v in payload[NEW_VALUE_COLUMNS[name]]
            ]
        }
        for name, payload in batch.items()
    }

    def commit(payloads: dict[str, dict[str, list]]) -> int:
        ingest = catalog.begin_ingest()
        for name, payload in payloads.items():
            ingest.stage(name, decode_wire_table(name, catalog.get(name), payload))
        ingest.commit()
        return ingest.bytes_written

    return {
        "bytes_written": [commit(batch) for _ in range(COMMITS)],
        "new_values_bytes_written": [commit(new_values), commit(batch)],
        "rows": {name: catalog.get(name).num_rows for name in INGEST_TABLES},
    }


def measure() -> dict[str, dict[str, dict[str, object]]]:
    catalog = generate_tpch(sf=SF, seed=SEED)

    def run(spec, strategy: str) -> dict[str, object]:
        stats = run_query(spec, catalog, config=RunConfig(strategy=strategy)).stats
        return counters(stats, strategy)

    record = {
        strategy: {
            f"q{qid}": run(get_query(qid, sf=SF), strategy) for qid in BENCH_QUERY_IDS
        }
        for strategy in STRATEGIES
    }
    adverse = [_stripped(get_query(qid, sf=SF)) for qid in ADVERSE_IDS]
    record["adverse"] = {spec.name: run(spec, "predtrans") for spec in adverse}
    record["ingest"] = ingest_counters(catalog)
    return record


@pytest.fixture(scope="module")
def measured() -> dict[str, dict[str, dict[str, object]]]:
    return measure()


def test_work_counters_equal_the_record(measured):
    record = json.loads(RECORD.read_text())
    assert sorted(measured) == sorted(record)
    for strategy, queries in record.items():
        assert sorted(measured[strategy]) == sorted(queries), strategy
        for query, expected in queries.items():
            assert measured[strategy][query] == expected, (strategy, query)


def test_cache_sized_edges_ship_bitmaps_and_composite_keys_bloom(measured):
    edges = {query: c["edges"] for query, c in measured["predtrans"].items()}
    for query, (src, dst) in CACHE_SIZED_EDGES.items():
        kinds = {
            edge.split()[-1]
            for edge in edges[query]
            if edge.split()[2] == f"{src}->{dst}"
        }
        assert kinds == {"bitmap"}, query
    # Q9's partsupp <-> lineitem edges key on (partkey, suppkey).
    composite = [e for e in edges["q9"] if "," in e.split()[3]]
    assert composite and all(e.endswith(" bloom") for e in composite)


def test_ingest_commits_after_the_first_write_only_the_delta(measured):
    """The first commit copies every column into a buffer with headroom
    (and merges each STRING dictionary); the rest append at the tip."""
    row_bytes = 52 + 96  # an orders row, a lineitem row: no validity masks
    first, *rest = measured["ingest"]["bytes_written"]
    assert rest == [INGEST_ROWS * row_bytes] * (COMMITS - 1)
    assert first > 100 * INGEST_ROWS * row_bytes


def test_ingest_commit_of_new_strings_rewrites_only_their_columns(measured):
    """A delta bringing string values no row holds re-encodes each such
    column whole (4-byte codes), appends every other column in place,
    and leaves the chain a tip: the next commit writes only its delta."""
    row_bytes, code_bytes = 52 + 96, 4
    new, again = measured["ingest"]["new_values_bytes_written"]
    rows_then = sum(measured["ingest"]["rows"].values()) - len(INGEST_TABLES) * INGEST_ROWS
    merged = code_bytes * rows_then
    in_place = INGEST_ROWS * (row_bytes - len(NEW_VALUE_COLUMNS) * code_bytes)
    assert new == merged + in_place
    assert again == INGEST_ROWS * row_bytes


if __name__ == "__main__":
    RECORD.write_text(json.dumps(measure(), indent=1) + "\n")
    print(f"wrote {RECORD}")
