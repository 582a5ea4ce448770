"""The two serving workloads: a server child process, two closed-loop
connections, a fixed window.

``serve_mixed`` — both connections draw from one mix: 60 % exact
repeats of :data:`REPEAT_SET` (whole-prefilter cache hits once warm),
40 % date-shifted variants whose shift is Zipf-skewed over ±60 days
(a first occurrence reuses only per-table artifacts; the tail of rare
dates overflows the cache budget).

``serve_ingest`` — connection 0 reads the repeat set back to back,
connection 1 loops one 512-row ``orders``+``lineitem`` ``INGEST`` and
ten reads.

Schedules are a pure function of ``(seed, connection)``; the server
receives nothing but the requests.
"""

from __future__ import annotations

import json
import pathlib
import random
import subprocess
import sys
import threading
import time
from typing import Iterator

from repro.core import runner
from repro.core.runner import RunConfig
from repro.errors import EngineSaturated, ReproError
from repro.service.client import ReproClient
from repro.service.server import build_default_registry, decode_wire_table
from repro.service.workload import INGEST_TABLES

import metrics
from tracing import Span
from workloads import SMOKE_SF, RunRecord, Workload, gated, per_layer, rows_match

HERE = pathlib.Path(__file__).resolve().parent

#: Exact-repeat set of the serving workloads (registry names).
REPEAT_SET = (
    "q3", "q5", "q7", "q8", "q10", "q12", "q18", "c1",
    "ssb_q2_1", "ssb_q3_2", "ssb_q4_1",
)
#: Date shifts of the parameter-varied requests, most popular first.
DELTAS = tuple(d for day in range(1, 61) for d in (day, -day))
#: Zipf weights over :data:`DELTAS` (rank 1 = ``+1`` day).
DELTA_WEIGHTS = tuple(1.0 / rank**1.1 for rank in range(1, len(DELTAS) + 1))

#: One deck of the mixed schedule: 33 exact repeats (60 %) and 22
#: parameter-varied requests (40 %).  Fixing the composition per deck
#: keeps the mix — and so the throughput — the same for every seed; the
#: seed decides the order and which dates are asked for.
DECK_REPEATS = 3
DECK_VARIED = 22
#: Reads between two ingests on the writing connection.
READS_PER_INGEST = 10
INGEST_ROWS = 512
#: Parameter-varied names re-run under the oracle, drawn by the seed.
VARIED_CHECKED = 12

# Classes of a read (a record's ``klass``).  ``serve_mixed``: exact
# ``repeat``, ``first`` occurrence of a varied name, ``revisit`` of one.
# ``serve_ingest``: ``fresh`` (first read of a query since the last
# commit — the cache extension path), ``later`` (a plain hit),
# ``overlapped`` (in flight while an ingest was).


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
def variant_name(base: str, delta: int) -> str:
    """Registry name of ``base`` with its dates shifted by ``delta``."""
    return f"{base}@{delta:+d}"


def mixed_deck(rng: random.Random, variable: list[str]) -> list[str]:
    """One shuffled deck of the mixed schedule (see ``DECK_*``)."""
    deck = list(REPEAT_SET) * DECK_REPEATS
    deltas = rng.choices(DELTAS, DELTA_WEIGHTS, k=DECK_VARIED)
    deck += [
        variant_name(variable[i % len(variable)], delta)
        for i, delta in enumerate(deltas)
    ]
    rng.shuffle(deck)
    return deck


def mixed_schedule(seed: int, conn: int, variable: list[str]) -> Iterator[tuple]:
    """Endless ``("query", name)`` stream of one ``serve_mixed`` connection."""
    rng = random.Random(f"mixed/{seed}/{conn}")
    while True:
        for name in mixed_deck(rng, variable):
            yield ("query", name)


def read_schedule(seed: int, conn: int) -> Iterator[tuple]:
    """Endless shuffled passes over the repeat set."""
    rng = random.Random(f"read/{seed}/{conn}")
    while True:
        deck = list(REPEAT_SET)
        rng.shuffle(deck)
        for name in deck:
            yield ("query", name)


def ingest_schedule(seed: int, conn: int) -> Iterator[tuple]:
    """One ``INGEST``, then :data:`READS_PER_INGEST` reads, forever."""
    reads = read_schedule(seed, conn)
    while True:
        yield ("ingest", None)
        for _ in range(READS_PER_INGEST):
            yield next(reads)


# ----------------------------------------------------------------------
# The server child and its clients
# ----------------------------------------------------------------------
class ServerChild:
    """The server process, driven over its stdin/stdout (one JSON object
    per line; see ``server_child.py``)."""

    def __init__(self, sf: float, seed: int, dump_spans: bool) -> None:
        command = [
            sys.executable, str(HERE / "server_child.py"),
            "--sf", repr(sf), "--seed", str(seed),
            "--ingest-rows", str(INGEST_ROWS),
        ]
        if dump_spans:
            command.append("--dump-spans")
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            self.ready = self._read("ready")
        except BaseException:
            self.stop()
            raise

    def _read(self, event: str) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server child exited (code {self.proc.poll()}) before {event!r}"
            )
        message = json.loads(line)
        if message.get("event") != event:
            raise RuntimeError(f"server child sent {message!r}, expected {event!r}")
        return message

    def command(self, word: str, event: str) -> dict:
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.flush()
        return self._read(event)

    def stop(self) -> None:
        """End the child whatever state the run is in, and reap it."""
        if self.proc.poll() is None:
            self.proc.stdin.close()  # end of input makes the child shut down
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class _Window:
    """Completed operations of every connection, and which varied names
    have been asked for so far (a first occurrence is its own class)."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.lock = threading.Lock()
        self.seen: set[str] = set()

    def classify(self, name: str) -> str:
        if name in REPEAT_SET:
            return "repeat"
        with self.lock:
            if name in self.seen:
                return "revisit"
            self.seen.add(name)
            return "first"


def _client_loop(
    port: int, conn: int, schedule: Iterator[tuple], window: _Window,
    start_at: float, seconds: float, batch: dict, tag: str,
) -> None:
    """One closed-loop connection: the next request goes out when the
    previous reply is in.  An operation begun before the deadline runs
    to completion."""
    records = []
    with ReproClient(port=port, io_timeout=120.0) as client:
        while time.perf_counter() < start_at:
            time.sleep(0.0005)
        deadline = start_at + seconds
        while True:
            began = time.perf_counter()
            if began >= deadline:
                break
            op, name = next(schedule)
            record = {"conn": conn, "op": op, "name": name, "klass": op,
                      "digest": None, "server_s": None, "error": None,
                      "retry": False}
            try:
                if op == "ingest":
                    client.ingest(batch)
                else:
                    record["klass"] = window.classify(name)
                    reply = client.query_once(
                        name, trace_id=f"{tag}{conn}-{len(records)}"
                    )
                    record["digest"] = reply["digest"]
                    record["server_s"] = reply["stats"]["seconds"]
            except EngineSaturated as exc:  # a refusal is a failed operation
                record["error"] = repr(exc)
                record["retry"] = True
            except ReproError as exc:
                record["error"] = repr(exc)
            ended = time.perf_counter()
            record["began"], record["ended"] = began, ended
            record["ms"] = (ended - began) * 1e3
            record["in_window"] = ended <= deadline
            records.append(record)
    with window.lock:
        window.records.extend(records)


def _run_window(
    port: int, schedules: list[Iterator[tuple]], window: _Window,
    seconds: float, batch: dict, tag: str,
) -> list[dict]:
    """Drive every connection for ``seconds``; returns this window's records."""
    before = len(window.records)
    start_at = time.perf_counter() + 0.2  # connections open before the clock starts
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(port, conn, schedule, window, start_at, seconds, batch, tag),
        )
        for conn, schedule in enumerate(schedules)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return window.records[before:]


def _latencies(records: list[dict], classes: set[str]) -> list[float]:
    return [r["ms"] for r in records if r["klass"] in classes and not r["error"]]


def _median_or_none(values: list[float]) -> float | None:
    """For informational classes a short window may leave empty."""
    return metrics.percentile(values, 50.0) if values else None


def _per_name_medians(records: list[dict], classes: set[str]) -> dict[str, float]:
    """Query name -> median latency of its requests in ``classes``."""
    by_name: dict[str, list[float]] = {}
    for r in records:
        if r["klass"] in classes and not r["error"]:
            by_name.setdefault(r["name"], []).append(r["ms"])
    return {
        name: metrics.percentile(values, 50.0)
        for name, values in sorted(by_name.items())
    }


def _classify_ingest_reads(records: list[dict]) -> None:
    """Re-class the reads of a ``serve_ingest`` window in place.

    Per query the latencies are bimodal — 40–60 ms for the first read
    after a commit, 8–10 ms for the next — and about half of each, so a
    median over both would sit on the cliff between them.
    """
    ingests = [(r["began"], r["ended"]) for r in records if r["op"] == "ingest"]
    seen: set[tuple[str, int]] = set()
    reads = (r for r in records if r["op"] == "query")
    for r in sorted(reads, key=lambda r: r["began"]):
        if any(start < r["ended"] and r["began"] < end for start, end in ingests):
            r["klass"] = "overlapped"
            continue
        commits_before = sum(1 for _, end in ingests if end <= r["began"])
        key = (r["name"], commits_before)
        r["klass"] = "later" if key in seen else "fresh"
        seen.add(key)


def _whole_cycle_read_rate(records: list[dict]) -> float:
    """Reads per second over whole writer cycles.

    A cycle is one ``INGEST`` plus the reads up to the next; counting
    from the start of the first ingest to the start of the last keeps a
    window that happens to end mid-cycle from moving the rate.
    """
    starts = sorted(r["began"] for r in records if r["op"] == "ingest")
    if len(starts) < 2:
        raise RuntimeError("window too short: fewer than two ingests began in it")
    first, last = starts[0], starts[-1]
    reads = sum(
        1 for r in records
        if r["op"] == "query" and not r["error"] and first <= r["ended"] < last
    )
    return reads / (last - first)


def _rate(workload: Workload, records: list[dict], seconds: float) -> float:
    """The workload's throughput over one window's records."""
    if workload.ingest:
        return _whole_cycle_read_rate(records)
    return sum(1 for r in records if r["in_window"] and not r["error"]) / seconds


def _own_numbers(workload: Workload, records: list[dict], seconds: float) -> dict:
    """One window's records under the workload's own metric names.

    Latencies use every operation begun in the window (dropping the ones
    that overran it would censor exactly the slow ones).
    """
    reads = [r["ms"] for r in records if r["op"] == "query" and not r["error"]]
    out = {"requests": len(records), "read": metrics.timing_summary(reads)}
    if workload.ingest:
        _classify_ingest_reads(records)
        ingests = _latencies(records, {"ingest"})
        fresh = _per_name_medians(records, {"fresh"})
        out.update({
            "read_rps": _rate(workload, records, seconds),
            "fresh_read_ms_by_query": fresh,
            "fresh_read_ms_geomean": metrics.geomean(list(fresh.values())),
            "fresh_samples": len(_latencies(records, {"fresh"})),
            "later_read_p50_ms": _median_or_none(_latencies(records, {"later"})),
            "overlapped_read_p50_ms": _median_or_none(
                _latencies(records, {"overlapped"})
            ),
            "read_p50_ms": metrics.percentile(reads, 50.0),
            "read_p95_ms": metrics.percentile(reads, 95.0),
            "ingest_p50_ms": metrics.percentile(ingests, 50.0),
            "ingest_samples": len(ingests),
        })
    else:
        firsts = _latencies(records, {"first"})
        repeats = _per_name_medians(records, {"repeat"})
        out.update({
            "throughput_rps": _rate(workload, records, seconds),
            "repeat_ms_by_query": repeats,
            "repeat_ms_geomean": metrics.geomean(list(repeats.values())),
            "repeat_p50_ms": metrics.percentile(_latencies(records, {"repeat"}), 50.0),
            "first_p50_ms": metrics.percentile(firsts, 50.0),
            "first_samples": len(firsts),
            "revisit_samples": len(_latencies(records, {"revisit"})),
            "latency_p95_ms": metrics.percentile(reads, 95.0),
        })
    return out


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def _fetch_rows(client: ReproClient, name: str, **how) -> tuple[str, list]:
    reply = client.query_once(name, include_data=True, **how)
    if reply["data_truncated"]:
        raise RuntimeError(f"{name}: result too large to verify over the wire")
    return reply["digest"], reply["data"]


def _check_mixed(client: ReproClient, records: list[dict], seed: int) -> int:
    """Failed operations of a ``serve_mixed`` run.

    The catalog never changes, so every reply for one name must carry
    one digest.  For the repeat set and a seeded sample of the varied
    names, that digest must also be the one a fresh request returns,
    and its rows must match the same query re-run on the same catalog
    as ``nopredtrans`` — no filter, no transfer.  (The eager executor
    would be a stronger oracle still, but costs 1.5 s for one Q5 at
    SF 0.25, which the run-time cap does not leave.)
    """
    varied = sorted({r["name"] for r in records} - set(REPEAT_SET))
    sample = random.Random(f"check/{seed}").sample(
        varied, min(VARIED_CHECKED, len(varied))
    )
    truth: dict[str, str | None] = {}
    for name in list(REPEAT_SET) + sample:
        digest, rows = _fetch_rows(client, name)
        _, want = _fetch_rows(client, name, strategy="nopredtrans")
        if rows_match(rows, want):
            truth[name] = digest
        else:
            print(f"rows differ from the oracle's: {name}", file=sys.stderr)
            truth[name] = None
    failed = 0
    for r in records:
        if r["error"] or r["digest"] != truth.setdefault(r["name"], r["digest"]):
            failed += 1
    return failed


def _check_ingest(
    client: ReproClient, sf: float, seed: int, batch: dict, commits: int
) -> tuple[int, int]:
    """``(attempted, failed)`` of the post-window check of ``serve_ingest``.

    With both connections quiet, re-read every query once and compare
    with an oracle built here: the same data from the same seed, the
    same committed batches appended (as one delta — merged dictionaries
    and row order come out the same), run as eager ``nopredtrans``.
    """
    reread = {}
    for name in REPEAT_SET:
        try:
            reread[name] = _fetch_rows(client, name)[1]
        except ReproError as exc:
            print(f"re-read of {name} failed: {exc!r}", file=sys.stderr)
            reread[name] = None
    catalog, specs = build_default_registry(sf, seed)
    if commits:
        ingest = catalog.begin_ingest()
        for name in INGEST_TABLES:
            payload = {col: values * commits for col, values in batch[name].items()}
            ingest.stage(name, decode_wire_table(name, catalog.get(name), payload))
        ingest.commit()
    config = RunConfig(strategy="nopredtrans", materialize="eager")
    failed = 0
    for name in REPEAT_SET:
        want = runner.run_query(specs[name], catalog, config=config).table.to_rows()
        if reread[name] is None or not rows_match(reread[name], want):
            print(f"rows differ from the oracle's after ingest: {name}",
                  file=sys.stderr)
            failed += 1
    return len(REPEAT_SET), failed


def _stats_delta(before: dict, after: dict) -> dict[str, float]:
    """Cache and engine counters spent between two ``STATS`` frames."""
    cache = {
        key: after["cache"][key] - before["cache"][key]
        for key in ("hits", "misses", "evictions", "extensions", "extension_rebuilds")
    }
    lookups = cache["hits"] + cache["misses"]
    return {
        "cache.hit_frac": cache["hits"] / lookups if lookups else 0.0,
        "cache.evictions": cache["evictions"],
        "cache.extensions": cache["extensions"],
        "cache.extension_rebuilds": cache["extension_rebuilds"],
        "service.rejected": after["engine"]["rejected"] - before["engine"]["rejected"],
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_serve(
    workload: Workload, seed: int, seconds: float, trace: int, smoke: bool,
    dump_spans: bool,
) -> tuple[RunRecord, list[Span]]:
    sf = SMOKE_SF if smoke else workload.sf
    t0 = time.perf_counter()
    child = ServerChild(sf, seed, dump_spans=bool(trace) and dump_spans)
    try:
        ready = child.ready
        port, batch = ready["port"], ready["ingest_batch"]
        with ReproClient(port=port, io_timeout=120.0) as control:
            for name in REPEAT_SET:  # untimed warm-up pass
                control.query_once(name)
            setup_s = time.perf_counter() - t0

            if workload.ingest:
                schedules = [read_schedule(seed, 0), ingest_schedule(seed, 1)]
            else:
                schedules = [
                    mixed_schedule(seed, conn, ready["variable"]) for conn in (0, 1)
                ]
            window = _Window()
            layer: dict[str, float] = {}
            traced: dict = {}
            if trace:
                # Half the window untraced, half traced: their ratio is
                # the tracing overhead, the traced half gives the layers.
                half = seconds / 2.0
                plain = _run_window(port, schedules, window, half, batch, "u")
                child.command("TRACE", "traced")
                stats_before = control.stats()
                records = _run_window(port, schedules, window, half, batch, "t")
                layer.update(_stats_delta(stats_before, control.stats()))
                traced = child.command("UNTRACE", "untraced")
                own = _own_numbers(workload, records, half)
                layer["trace_overhead_frac"] = 1.0 - (
                    _rate(workload, records, half) / _rate(workload, plain, half)
                )
                layer["wire.client_overhead_ms"] = metrics.percentile(
                    [r["ms"] - r["server_s"] * 1e3
                     for r in records if r["server_s"] is not None],
                    50.0,
                )
                layer["service.retries"] = sum(1 for r in records if r["retry"])
            else:
                records = _run_window(port, schedules, window, seconds, batch, "r")
                own = _own_numbers(workload, records, seconds)

            # Correctness, outside every metric.
            attempted = len(window.records)
            if workload.ingest:
                failed = sum(1 for r in window.records if r["error"])
                commits = sum(
                    1 for r in window.records
                    if r["op"] == "ingest" and not r["error"]
                )
                extra, bad = _check_ingest(control, sf, seed, batch, commits)
                attempted += extra
                failed += bad
            else:
                failed = _check_mixed(control, window.records, seed)
        final = child.command("QUIT", "exit")
    finally:
        child.stop()

    if workload.ingest:
        values = {"ops_per_s": own["read_rps"],
                  "typical_ms": own["fresh_read_ms_geomean"],
                  "heavy_ms": own["ingest_p50_ms"]}
    else:
        values = {"ops_per_s": own["throughput_rps"],
                  "typical_ms": own["repeat_ms_geomean"],
                  "heavy_ms": own["first_p50_ms"]}
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = final["peak_rss_mb"]
    detail = dict(own)
    detail.update({
        "attempted_ops": attempted,
        "failed_ops": failed,
        "datagen_s": ready["datagen_s"],
        "connections": len(schedules),
    })
    spans: list[Span] = []
    if trace:
        layer.update(traced["layers"])
        layer["tpch.datagen_s"] = ready["datagen_s"]
        layer["tpch.rows_per_s"] = ready["rows"] / ready["datagen_s"]
        detail["end_to_end_info"] = values
        detail["span_table"] = traced["span_table"]
        spans = [Span(*s) for s in traced.get("spans", [])]
        reported = per_layer(layer)
    else:
        reported = gated(values)
    record = RunRecord(
        workload.name, seed, seconds, trace, sf, reported, detail, attempted, failed
    )
    return record, spans
