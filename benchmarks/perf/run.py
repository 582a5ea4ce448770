#!/usr/bin/env python3
"""The repo's benchmark: one command for the whole ladder.

    python benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python benchmarks/perf/run.py [--smoke] [--repeat K] [--out FILE]
    python benchmarks/perf/run.py --compare A.json B.json

With ``--workload`` one run happens in this process: inputs are made
from ``--seed``, every metric is printed as ``name value unit``, outputs
are checked, and the last line of stdout is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json`` with tracing off;
``--trace 1`` reports the per-layer metrics from a traced run.  Without
``--workload`` every workload runs, each in a fresh process so that peak
memory is its own.  The exit code is non-zero when any operation failed
or any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import tempfile

# Pinned before NumPy loads; server children inherit them.  Without the
# second one NumPy asks for transparent huge pages, and whether the
# kernel has one to give makes identical runs bimodal (the stripped c1
# triangle: 1.35 s or 2.45 s).
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402  (stdlib only; the program is imported per run)

SCHEMA = "perf-bench/v1"
SMOKE_SECONDS = 2


def environment(seed: int) -> dict:
    """Where and on what the numbers were taken."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the checkout need not be a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": commit,
        "seed": seed,
        "omp_num_threads": os.environ["OMP_NUM_THREADS"],
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
    }


def print_record(record) -> None:
    """Every metric as ``name value unit``, then the workload's own
    names for them and the informational numbers."""
    print(f"# workload {record.workload} seed {record.seed} sf {record.sf} "
          f"seconds {record.seconds} trace {record.trace}")
    for name, entry in record.metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    for name, value in record.detail.items():
        if isinstance(value, (int, float)):
            print(f"info.{name} {value:.6g}")
    for row in record.detail.get("span_table", []):
        print(f"span {row['name']} calls {row['calls']} "
              f"total_s {row['total_s']:.4f} self_s {row['self_s']:.4f}")
    for row in record.detail.get("phases", []):
        print(f"phase {row['query']} {row['strategy']} total_s {row['total_s']:.4f} "
              f"prefilter_s {row['prefilter_s']:.4f} joinphase_s {row['joinphase_s']:.4f}")


def document(records: list[dict], seed: int) -> dict:
    return {"schema": SCHEMA, "env": environment(seed), "runs": records}


def run_one(args) -> int:
    try:
        import serving
        import workloads
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if workload.kind == "inprocess":
        record, spans = workloads.run_inprocess(
            workload, args.seed, args.seconds, args.trace, args.smoke
        )
    else:
        record, spans = serving.run_serve(
            workload, args.seed, args.seconds, args.trace, args.smoke,
            dump_spans=args.out is not None,
        )
    print_record(record)
    if args.out is not None:
        out = pathlib.Path(args.out)
        doc = document([vars(record) | {"correct": record.correct}], args.seed)
        out.write_text(json.dumps(doc, indent=1) + "\n")
        if spans:
            spans_path = out.with_suffix(".spans.json")
            spans_path.write_text(json.dumps([list(s) for s in spans]) + "\n")
    print(json.dumps(record.summary()))
    return 0 if record.correct else 1


def run_many(args, names: list[str]) -> int:
    """Each (workload, seed) in a fresh process; merge their documents."""
    out = pathlib.Path(args.out) if args.out else None
    records: list[dict] = []
    status = 0
    with tempfile.TemporaryDirectory(dir=out.parent if out else HERE) as scratch:
        for name in names:
            for seed in range(args.seed, args.seed + args.repeat):
                part = pathlib.Path(scratch) / f"{name}.{seed}.json"
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--out", str(part),
                ]
                if args.smoke:
                    command.append("--smoke")
                code = subprocess.run(command).returncode
                status = status or code
                if part.exists():
                    records.extend(json.loads(part.read_text())["runs"])
    if out is not None:
        out.write_text(json.dumps(document(records, args.seed), indent=1) + "\n")
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": status == 0, "runs": len(records),
        "attempted": sum(r["attempted"] for r in records), "failed": failed,
    }))
    return status


def run_compare(paths: list[str]) -> int:
    base, other = (json.loads(pathlib.Path(p).read_text()) for p in paths)
    rows = metrics.compare(base, other, metrics.load_contract())
    print(f"base  = {paths[0]} (commit {base['env']['commit']})")
    print(f"other = {paths[1]} (commit {other['env']['commit']})")
    print(metrics.format_compare(rows))
    bad = [r for r in rows if r["verdict"] != "PASS"]
    return 1 if bad or not rows else 0


def main(argv: list[str] | None = None) -> int:
    contract = metrics.load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed section (default: run_seconds "
                             "of BENCHMARK.json; 2 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="SF 0.02 and 2 s sections: checks the harness, "
                             "measures nothing")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds SEED..SEED+K-1")
    parser.add_argument("--out", help="write the result document here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return run_compare(args.compare)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else contract["run_seconds"]
    if args.workload and args.repeat == 1:
        return run_one(args)
    return run_many(args, [args.workload] if args.workload else names)


if __name__ == "__main__":
    sys.exit(main())
