"""BENCHMARK.json, the harness's own tables and what a run prints agree."""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import layers
import metrics
import workloads

PERF = pathlib.Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
CONTRACT = metrics.load_contract()


def test_contract_has_exactly_the_agreed_keys():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert CONTRACT["paths"] == ["benchmarks/perf"]
    assert CONTRACT["command"] == ["python3", "benchmarks/perf/run.py"]
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8


def test_names_units_and_bounds_are_well_formed():
    names = []
    for w in CONTRACT["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in CONTRACT["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in CONTRACT["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_contract_matches_the_harness_tables():
    assert [(w["name"], w["why"]) for w in CONTRACT["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in layers.PER_LAYER.items()
    ]


def smoke(workload: str, trace: int, cwd=ROOT, script=PERF / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_a_run_prints_exactly_the_declared_metrics(workload, trace):
    done = smoke(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = CONTRACT["per_layer"] if trace else CONTRACT["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"} and entry["unit"] == units[name]
        assert isinstance(entry["value"], (int, float))
        assert trace or entry["value"] > 0  # end-to-end metrics are never 0
    printed = [
        line.split()[0] for line in lines[:-1]
        if not line.startswith(("#", "span ", "phase "))
    ]
    assert all(NAME.match(name) for name in printed)
    assert [n for n in printed if not n.startswith("info.")] == list(units)


def test_bypassed_layers_read_zero_on_the_in_process_workloads():
    result = json.loads(smoke("tpch_nopredtrans", 1).stdout.strip().splitlines()[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    quiet = [
        k for k in values
        if k.split(".")[0] in ("cache", "service", "wire")
        or k in ("filters.hash_ns_per_key", "filters.bloom_build_ns_per_key",
                 "filters.bloom_probe_ns_per_key", "filters.filter_bytes",
                 "filters.pass_frac", "core.transfer_self_s", "core.edges_shipped")
    ]
    assert quiet and all(values[k] == 0 for k in quiet)
    assert values["engine.join_s"] > 0 and values["tpch.datagen_s"] > 0


def test_without_the_program_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        PERF, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__", "results", "out"),
    )
    done = smoke("tpch_predtrans", 0, cwd=tmp_path,
                 script=tmp_path / "benchmarks" / "perf" / "run.py")
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
