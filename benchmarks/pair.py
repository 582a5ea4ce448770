#!/usr/bin/env python3
"""Paired, alternating benchmark runs of two revisions.

    python benchmarks/pair.py REV_A REV_B --workload W --seeds S..S+N
                              [--out FILE]

REV_A is the parent and REV_B the change.  Both are checked out as
detached ``git worktree``s in a temporary directory outside the
repository (``TMPDIR`` chooses where), and removed afterwards.  For each
seed, each tree's own, unmodified ``benchmarks/perf/run.py --workload W
--seed S --out FILE`` runs in a child process, one tree after the
other; which tree goes first alternates from seed to seed, so drift of
the machine over the session falls on both sides alike.

Per end-to-end metric of ``BENCHMARK.json`` it prints the parent's
median and inter-quartile range (as a share of its median), the
change's median, the median of the per-pair ratios change / parent, the
pairs the change won (lower or higher, as the metric's ``better`` says)
and the two-sided sign test's p-value (``scipy.stats.binomtest`` over
the pairs that were not ties).  A metric whose parent IQR exceeds its
bound is marked ``unresolved``: the parent's own runs spread more than
the difference the benchmark would call a regression.

Exit status: 0 when every child run was correct, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

from scipy.stats import binomtest

ROOT = pathlib.Path(__file__).resolve().parents[1]
RUNNER = pathlib.Path("benchmarks") / "perf" / "run.py"


def parse_seeds(text: str) -> list[int]:
    """``"S..E"`` (inclusive) or one seed."""
    first, _, last = text.partition("..")
    start = int(first)
    stop = int(last) if last else start
    if stop < start:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(start, stop + 1))


def iqr_share(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (the spread
    ``benchmarks/perf/metrics.py`` judges bounds against)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def pair_stats(
    parent: list[float], change: list[float], better: str, bound: float
) -> dict:
    """The statistics of one metric over pairs ``(parent[i], change[i])``."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one change value per parent value")
    wins = losses = 0
    for a, b in zip(parent, change):
        if a == b:
            continue
        if (b < a) == (better == "lower"):
            wins += 1
        else:
            losses += 1
    spread = iqr_share(parent)
    ratios = [b / a if a else float("inf") for a, b in zip(parent, change)]
    return {
        "parent_median": statistics.median(parent),
        "parent_iqr": spread,
        "change_median": statistics.median(change),
        "ratio": statistics.median(ratios),
        "wins": wins,
        "pairs": len(parent),
        "p": binomtest(wins, wins + losses, 0.5).pvalue if wins + losses else 1.0,
        "unresolved": spread > bound,
    }


def summarize(pairs: list[tuple[dict, dict]], contract: dict) -> list[dict]:
    """One row per end-to-end metric, from ``(parent, change)`` run
    records (an entry of a ``run.py --out`` document's ``runs``)."""
    rows = []
    for metric in contract["end_to_end"]:
        name = metric["name"]
        parent = [a["metrics"][name]["value"] for a, _ in pairs]
        change = [b["metrics"][name]["value"] for _, b in pairs]
        row = pair_stats(parent, change, metric["better"], metric["bound"])
        rows.append({"metric": name, "unit": metric["unit"], **row})
    return rows


def format_rows(rows: list[dict]) -> str:
    """The rows as a fixed-width table."""
    lines = [
        f"{'metric':<13}{'parent':>12}{'IQR':>8}{'change':>12}{'ratio':>8}"
        f"{'wins':>8}{'p':>9}"
    ]
    for r in rows:
        lines.append(
            f"{r['metric']:<13}{r['parent_median']:>12.4g}{r['parent_iqr']:>8.1%}"
            f"{r['change_median']:>12.4g}{r['ratio']:>8.3f}"
            f"{r['wins']:>5}/{r['pairs']:<2}{r['p']:>9.3g}"
            + ("  unresolved" if r["unresolved"] else "")
        )
    return "\n".join(lines)


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _run(tree: pathlib.Path, workload: str, seed: int, out: pathlib.Path) -> dict:
    """One child run of ``tree``'s own benchmark, at its own default
    run length; its run record."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    command = [
        sys.executable, str(tree / RUNNER), "--workload", workload,
        "--seed", str(seed), "--out", str(out),
    ]
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if not out.exists():
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{tree.name} seed {seed}: exit {done.returncode}")
    (record,) = json.loads(out.read_text())["runs"]
    return record


def main(argv: list[str] | None = None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="REV_A")
    parser.add_argument("change", metavar="REV_B")
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in contract["workloads"]]
    )
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1..5"))
    parser.add_argument("--out", help="write the run records and the rows here")
    args = parser.parse_args(argv)

    revs = {
        side: _git("rev-parse", "--verify", f"{rev}^{{commit}}")
        for side, rev in (("parent", args.parent), ("change", args.change))
    }
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="pair-"))
    trees = {side: scratch / side for side in revs}
    pairs: list[tuple[dict, dict]] = []
    try:
        for side, rev in revs.items():
            _git("worktree", "add", "--detach", str(trees[side]), rev)
        for i, seed in enumerate(args.seeds):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            got = {}
            for side in order:
                out = scratch / f"{side}.{seed}.json"
                got[side] = _run(trees[side], args.workload, seed, out)
                print(f"seed {seed} {side}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in got[side]["metrics"].items()
                ), flush=True)
            pairs.append((got["parent"], got["change"]))
    finally:
        for tree in trees.values():
            if tree.exists():
                _git("worktree", "remove", "--force", str(tree))
        _git("worktree", "prune")
        shutil.rmtree(scratch, ignore_errors=True)

    rows = summarize(pairs, contract)
    print(f"workload {args.workload}: parent {revs['parent'][:12]}, "
          f"change {revs['change'][:12]}, {len(pairs)} pairs")
    print(format_rows(rows))
    failed = sum(a["failed"] + b["failed"] for a, b in pairs)
    print(f"failed operations: {failed}")
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "revs": revs, "pairs": pairs, "rows": rows},
            indent=1,
        ) + "\n")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
