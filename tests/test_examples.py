"""Smoke tests: every example script must run end-to-end."""

import pathlib
import runpy
import sys

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def _run(script: str, argv: list[str], capsys) -> str:
    old_argv = sys.argv
    sys.argv = [script] + argv
    try:
        runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = _run("quickstart.py", [], capsys)
    assert "predtrans" in out and "2 result rows" in out


def test_filter_transformation_demo(capsys):
    out = _run("filter_transformation_demo.py", [], capsys)
    assert "Outgoing filter on C" in out
    assert "[300, 500]" in out


def test_tpch_q5_case_study(capsys):
    out = _run("tpch_q5_case_study.py", ["0.003"], capsys)
    assert "Predicate transfer graph" in out
    # The edge table, as written (all 14 ship) and stripped (the gate).
    assert "14 filters shipped, 0 edges skipped" in out
    assert "Transfer edges of q5_stripped" in out and "skipped: covered" in out
    assert "Q5 join sizes" in out
    assert "max/min" in out


def test_star_schema(capsys):
    out = _run("star_schema.py", ["20000"], capsys)
    assert "predtrans" in out and "revenue" in out


def test_ssb_flights(capsys):
    out = _run("ssb_flights.py", ["0.003"], capsys)
    assert "Q1.1" in out and "total" in out


def test_tpch_benchmark(capsys):
    out = _run("tpch_benchmark.py", ["0.003"], capsys)
    assert "geomean" in out and "PredTrans geomean speedup" in out


def test_every_example_has_smoke_coverage():
    scripts = {p.name for p in EXAMPLES.glob("*.py")}
    covered = {
        "quickstart.py",
        "filter_transformation_demo.py",
        "tpch_q5_case_study.py",
        "star_schema.py",
        "ssb_flights.py",
        "tpch_benchmark.py",
    }
    assert scripts == covered
