"""The serving workloads' server process.

Started by ``serving.ServerChild``; it builds the stock registry from
``--sf``/``--seed``, registers every date-shifted variant the mixed
schedule may ask for, and serves on an ephemeral port with
``Engine(workers=2)`` and the default cache budget.  It speaks one JSON
object per line on stdout and obeys one word per line on stdin:

* on start: ``{"event": "ready", "port", "datagen_s", "rows",
  "variable", "ingest_batch"}``;
* ``TRACE``   → installs the span wrappers, answers ``traced``;
* ``UNTRACE`` → removes them, answers ``untraced`` with the per-layer
  metrics, the span table and (``--dump-spans``) the raw spans;
* ``QUIT`` or end of input → drains the server, answers ``exit`` with
  the process's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro.core.runner import RunConfig  # noqa: E402
from repro.service.engine import Engine  # noqa: E402
from repro.service.server import (  # noqa: E402
    ServerConfig,
    ServerThread,
    build_default_registry,
)
from repro.service.workload import INGEST_TABLES, vary_spec  # noqa: E402

import layers  # noqa: E402
from tracing import Tracer, span_table  # noqa: E402
from serving import DELTAS, REPEAT_SET, variant_name  # noqa: E402


def say(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def wire_rows(table, rows: int) -> dict[str, list]:
    """The first ``rows`` rows in the wire form ``INGEST`` expects."""
    return {
        name: [v.item() if hasattr(v, "item") else v for v in column.to_pylist()]
        for name, column in table.head(rows).columns.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sf", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ingest-rows", type=int, required=True)
    parser.add_argument("--dump-spans", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    catalog, specs = build_default_registry(args.sf, args.seed)
    datagen_s = time.perf_counter() - t0
    variable = []
    for base in REPEAT_SET:
        for delta in DELTAS:
            varied = vary_spec(specs[base], delta, variant_name("", delta))
            if varied is None:  # no date parameter to vary
                break
            specs[varied.name] = varied
        else:
            variable.append(base)
    batch = {
        name: wire_rows(catalog.get(name), args.ingest_rows) for name in INGEST_TABLES
    }

    engine = Engine(catalog, config=RunConfig(threads=1), workers=2)
    tracer = Tracer()
    try:
        with ServerThread(
            engine, specs, config=ServerConfig(host="127.0.0.1", port=0),
            meta={"sf": args.sf, "seed": args.seed},
        ) as server:
            say({
                "event": "ready", "port": server.port, "datagen_s": datagen_s,
                "rows": catalog.total_rows(), "variable": variable,
                "ingest_batch": batch,
            })
            for line in sys.stdin:
                word = line.strip()
                if word == "TRACE":
                    tracer.install(layers.TARGETS)
                    say({"event": "traced"})
                elif word == "UNTRACE":
                    tracer.uninstall()
                    spans = layers.link_requests(tracer.drain())
                    message = {
                        "event": "untraced",
                        "layers": layers.layer_metrics(spans),
                        "span_table": span_table(spans),
                    }
                    if args.dump_spans:
                        message["spans"] = spans
                    say(message)
                elif word == "QUIT":
                    break
    finally:
        tracer.uninstall()
        engine.shutdown(wait=True, cancel=True)
    say({
        "event": "exit",
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
