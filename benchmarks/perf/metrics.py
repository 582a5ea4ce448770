"""Statistics the benchmark reports, and the comparison of two result
files against the bounds in ``BENCHMARK.json``."""

from __future__ import annotations

import json
import math
import pathlib
import statistics

BENCHMARK_JSON = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Percentiles a timing may be reported at, lowest first, each with the
#: share of samples beyond it in per mille (integers: 100 * (1 - 0.9)
#: is not 10 in floating point).
PERCENTILE_LADDER = ((75.0, 250), (90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1))


def load_contract() -> dict:
    """The parsed ``BENCHMARK.json`` at the root of the checkout."""
    return json.loads(BENCHMARK_JSON.read_text())


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (``p`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def supported_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least ten of ``n`` samples
    beyond it; ``None`` when even the lowest rung has fewer."""
    best = None
    for p, beyond_per_mille in PERCENTILE_LADDER:
        if n * beyond_per_mille >= 10 * 1000:
            best = p
    return best


def geomean(values: list[float]) -> float:
    """Geometric mean of positive values."""
    return math.exp(sum(math.log(v) for v in values) / len(values))


def timing_summary(values_ms: list[float]) -> dict:
    """Median, the highest supported percentile, and the sample count;
    p99 and max ride along as information only."""
    top = supported_percentile(len(values_ms))
    return {
        "n": len(values_ms),
        "p50_ms": percentile(values_ms, 50.0),
        "tail_percentile": top,
        "tail_ms": None if top is None else percentile(values_ms, top),
        "p99_ms_info": percentile(values_ms, 99.0),
        "max_ms_info": max(values_ms),
    }


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median — the
    run-to-run spread the bounds are judged against."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


# ----------------------------------------------------------------------
# Comparing two result files
# ----------------------------------------------------------------------
def _by_workload(document: dict) -> dict[str, dict[str, list[float]]]:
    """workload -> end-to-end metric -> its value in every untraced run."""
    out: dict[str, dict[str, list[float]]] = {}
    for run in document["runs"]:
        if run["trace"]:
            continue
        per_metric = out.setdefault(run["workload"], {})
        for name, entry in run["metrics"].items():
            per_metric.setdefault(name, []).append(entry["value"])
    return out


def compare(base: dict, other: dict, contract: dict) -> list[dict]:
    """One row per (workload, gated metric) present in both files.

    ``ratio`` is ``other / base`` of the medians.  The verdict is
    ``FAIL`` when ``other`` is worse than ``base`` by more than the
    metric's bound, ``UNRESOLVED`` when either side's own spread
    exceeds the bound (the runs cannot tell a regression from noise),
    and ``PASS`` otherwise.
    """
    a, b = _by_workload(base), _by_workload(other)
    rows = []
    for workload in contract["workloads"]:
        for metric in contract["end_to_end"]:
            va = a.get(workload["name"], {}).get(metric["name"])
            vb = b.get(workload["name"], {}).get(metric["name"])
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            spreads = (spread(va), spread(vb))
            if worse > metric["bound"]:
                verdict = "FAIL"
            elif max(spreads) > metric["bound"]:
                verdict = "UNRESOLVED"
            else:
                verdict = "PASS"
            rows.append(
                {
                    "workload": workload["name"],
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "base": ma,
                    "other": mb,
                    "ratio": mb / ma,
                    "runs": (len(va), len(vb)),
                    "spread": spreads,
                    "bound": metric["bound"],
                    "verdict": verdict,
                }
            )
    return rows


def format_compare(rows: list[dict]) -> str:
    """The comparison as a fixed-width table."""
    lines = [
        f"{'workload':<18}{'metric':<14}{'base':>12}{'other':>12}"
        f"{'other/base':>12}{'spread a/b':>16}{'bound':>7}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['workload']:<18}{r['metric']:<14}{r['base']:>12.4g}"
            f"{r['other']:>12.4g}{r['ratio']:>12.3f}"
            f"{r['spread'][0]:>8.3f}/{r['spread'][1]:<7.3f}{r['bound']:>7.2f}"
            f"  {r['verdict']} (n={r['runs'][0]}/{r['runs'][1]})"
        )
    return "\n".join(lines)
