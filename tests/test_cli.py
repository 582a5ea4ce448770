"""Tests for the ``python -m repro`` CLI."""

import pytest

from repro.__main__ import build_parser, main


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["tpch", "--sf", "0.004", "--query", "5"])
    assert args.command == "tpch" and args.query == (5,) and args.sf == 0.004


def test_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_cli_surface_is_the_documented_commands():
    """The parser's subcommands are exactly the module docstring's
    ``Commands`` list: no undocumented command, no stale entry."""
    import argparse
    import re

    import repro.__main__ as cli

    (sub,) = [
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    commands = set(sub.choices)
    assert commands == {
        "tpch", "ssb", "fig4", "q5", "serve", "client", "stats", "trace",
        "check",
    }
    section = cli.__doc__.split("Commands\n--------\n", 1)[1].split("\n\n", 1)[0]
    assert set(re.findall(r"^``(\w+)``", section, re.MULTILINE)) == commands


def test_query_lists_accepted_everywhere():
    parser = build_parser()
    assert parser.parse_args(["tpch", "--query", "3,5,9"]).query == (3, 5, 9)
    assert parser.parse_args(["ssb", "--query", "1.1,2.1"]).query == (
        "1.1",
        "2.1",
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["tpch", "--query", "23"],
        ["tpch", "--query", "3,x"],
        ["tpch", "--query", ","],
        ["ssb", "--query", "9.9"],
        ["tpch", "--query", "0"],
    ],
)
def test_bad_query_lists_rejected(argv):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)


def test_tpch_query_list_runs(capsys):
    code = main(
        [
            "tpch", "--sf", "0.003", "--query", "3,5",
            "--strategy", "predtrans", "--repeats", "1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "q3" in out and "q5" in out


def test_ssb_query_list_runs(capsys):
    code = main(
        [
            "ssb", "--sf", "0.003", "--query", "1.1,2.1",
            "--strategy", "predtrans", "--repeats", "1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Q1.1" in out and "Q2.1" in out


def test_tpch_single_query(capsys):
    code = main(
        [
            "tpch", "--sf", "0.003", "--query", "5",
            "--strategy", "predtrans", "--repeats", "1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "q5" in out and "predtrans" in out and "prefiltered" in out


def test_tpch_analyze_prints_the_edge_table(capsys):
    argv = ["tpch", "--sf", "0.003", "--query", "9", "--strategy", "predtrans",
            "--repeats", "1", "--no-filter-cache"]
    assert main(argv) == 0
    assert "transfer edges" not in capsys.readouterr().out
    assert main(argv + ["--analyze"]) == 0
    out = capsys.readouterr().out
    assert "transfer edges of q9 (predtrans)" in out
    # Q9: nation, supplier and orders keep every row and cover their
    # neighbours' keys; part carries the predicate and ships.
    assert "n -> s  | n.n_nationkey               | skipped: covered" in out
    assert "p -> l  | p.p_partkey                 | shipped" in out
    # Then each join's estimate against its output, and the order
    # planned before transfer.
    assert "joins of q9 (predtrans)" in out and "out/est" in out
    assert "  join order of q9: n s ps p l o" in out
    assert build_parser().parse_args(["ssb", "--analyze"]).analyze is True


def test_ssb_single_query(capsys):
    code = main(
        [
            "ssb", "--sf", "0.003", "--query", "1.1",
            "--strategy", "predtrans", "--repeats", "1",
        ]
    )
    assert code == 0
    assert "Q1.1" in capsys.readouterr().out


def test_fig4_smoke(capsys):
    code = main(["fig4", "--sf", "0.002", "--repeats", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "geomean" in out and "Figure 4" in out


def test_q5_case_study_smoke(capsys):
    code = main(["q5", "--sf", "0.002", "--repeats", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Q5 join sizes" in out and "max/min" in out


def test_bench_json_smoke(capsys):
    code = main(
        [
            "tpch", "--sf", "0.003", "--query", "5", "--strategy", "predtrans",
            "--repeats", "1", "--analyze", "--no-filter-cache",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "transfer edges of q5 (predtrans)" in out
    # Q5 as written: every vertex is filtered, the gate skips none.
    assert out.count("| shipped") == 14
    assert "skipped" not in out


def test_cyclic_query_ids_accepted():
    parser = build_parser()
    assert parser.parse_args(["tpch", "--query", "3,c1"]).query == (3, "c1")
    assert parser.parse_args(["ssb", "--query", "c.1"]).query == ("c.1",)


def test_unknown_cyclic_id_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["tpch", "--query", "c9"])


def test_tpch_cyclic_query_runs(capsys):
    from repro.__main__ import main

    assert main(["tpch", "--sf", "0.003", "--query", "c1", "--strategy",
                 "predtrans", "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    assert "qc1" in out


def test_parallel_args_accepted_on_run_commands():
    """Both query commands take ``--partition-rows`` and hand it to
    their RunConfig."""
    from repro.__main__ import _run_config

    parser = build_parser()
    for argv in (
        ["tpch", "--partition-rows", "8192"],
        ["ssb", "--partition-rows", "2048"],
    ):
        args = parser.parse_args(argv)
        assert args.partition_rows == int(argv[2])
        assert _run_config(args).partition_rows == int(argv[2])


@pytest.mark.parametrize(
    "argv",
    [
        ["tpch", "--threads", "2"],
        ["ssb", "--threads", "2"],
        ["fig4", "--threads", "2"],
        ["q5", "--threads", "2"],
        ["check", "--threads", "2"],
        ["client", "--threads", "2"],
        ["serve", "--threads", "2"],
        ["stats", "--url", ":1", "--threads", "2"],
        ["trace", "--query", "q5", "--threads", "2"],
    ],
)
def test_intra_query_thread_flags_rejected(argv):
    """A query runs on one thread: no command takes a thread count."""
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)


def test_serve_client_loadtest_parser_wiring():
    parser = build_parser()
    args = parser.parse_args(
        [
            "serve", "--sf", "0.002", "--port", "7700", "--workers", "2",
            "--max-pending", "8", "--max-frame-mb", "1",
            "--timeout-ms", "5000",
        ]
    )
    assert args.command == "serve" and args.max_pending == 8
    assert args.max_frame_mb == 1.0 and args.timeout_ms == 5000.0
    args = parser.parse_args(
        ["client", "--query", "5", "--strategy", "predtrans",
         "--timeout-ms", "250"]
    )
    assert args.query == "5" and args.timeout_ms == 250.0
    # No load generator in the CLI: serving load is the benchmark's.
    with pytest.raises(SystemExit):
        parser.parse_args(["loadtest", "--connections", "2"])


def test_client_cold_then_warm_query_matches_in_process_digest(capsys):
    """``repro client`` against an in-process server: the same query
    twice (cold, then warm cache) returns the in-process digest, and
    the server is left with no pending job."""
    import json

    from repro.core.runner import run_query
    from repro.service import Engine, ServerThread, build_default_registry
    from repro.service.workload import result_digest

    catalog, specs = build_default_registry(0.002)
    oracle = result_digest(run_query(specs["q3"], catalog).table)
    engine = Engine(catalog, workers=2)
    try:
        with ServerThread(engine, specs) as st:
            base = ["client", "--host", st.host, "--port", str(st.port)]
            for _ in range(2):
                assert main(base + ["--query", "q3", "--json"]) == 0
                assert json.loads(capsys.readouterr().out)["digest"] == oracle
            assert main(base + ["--stats"]) == 0
            stats = json.loads(capsys.readouterr().out)
    finally:
        engine.shutdown(wait=True, cancel=True)
    assert stats["server"]["pending_jobs"] == 0
    assert stats["cache"]["hits"] > 0


def test_client_against_dead_server_is_typed_error(capsys):
    code = main(["client", "--port", "1", "--ping"])
    assert code == 1
    assert "ConnectionLost" in capsys.readouterr().err


def test_serve_process_answers_then_drains_on_sigterm():
    """``repro serve`` as its own process: it prints its bound port,
    answers a PING and a query, and exits 0 with ``drained cleanly``
    after SIGTERM."""
    import os
    import pathlib
    import re
    import signal
    import subprocess
    import sys
    import threading

    from repro.service import ReproClient

    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--sf", "0.002",
         "--port", "0", "--workers", "2"],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        # Read the banner off-thread so a hung boot fails the test
        # instead of blocking it.
        banner: list[str] = []
        reader = threading.Thread(
            target=lambda: banner.append(proc.stdout.readline())
        )
        reader.start()
        reader.join(timeout=60)
        assert banner, "server printed nothing within 60 s"
        match = re.search(r"^serving \d+ queries .* on ([\d.]+):(\d+) ", banner[0])
        assert match, banner[0]
        host, port = match.group(1), int(match.group(2))
        with ReproClient(host, port, io_timeout=30) as client:
            assert client.ping()["ready"] is True
            assert client.query("q3")["rows"] > 0
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, out
    assert "drained cleanly" in out
