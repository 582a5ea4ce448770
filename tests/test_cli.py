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


def test_query_lists_accepted_everywhere():
    parser = build_parser()
    assert parser.parse_args(["tpch", "--query", "3,5,9"]).query == (3, 5, 9)
    assert parser.parse_args(["ssb", "--query", "1.1,2.1"]).query == (
        "1.1",
        "2.1",
    )
    assert parser.parse_args(["bench", "--queries", "3,5"]).queries == (3, 5)


@pytest.mark.parametrize(
    "argv",
    [
        ["tpch", "--query", "23"],
        ["tpch", "--query", "3,x"],
        ["tpch", "--query", ","],
        ["ssb", "--query", "9.9"],
        ["bench", "--queries", "0"],
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


def test_bench_json_smoke(tmp_path, capsys):
    out_path = tmp_path / "bench.json"
    code = main(
        [
            "bench", "--sf", "0.003", "--queries", "5",
            "--strategies", "predtrans,nopredtrans",
            "--repeats", "1", "--json", str(out_path),
        ]
    )
    assert code == 0
    assert "q5" in capsys.readouterr().out

    import json

    doc = json.loads(out_path.read_text())
    assert doc["schema"] == "repro-bench/v5"
    assert doc["meta"]["sf"] == 0.003
    strategies = {m["strategy"] for m in doc["measurements"]}
    assert strategies == {"predtrans", "nopredtrans"}
    for m in doc["measurements"]:
        assert m["seconds"] > 0
        assert m["transfer_seconds"] >= 0
        if m["strategy"] == "predtrans":
            # Q5 as written: every vertex is filtered, the gate skips none.
            assert m["filters_built"] == 14 and m["filter_bytes"] > 0


def test_cyclic_query_ids_accepted():
    parser = build_parser()
    assert parser.parse_args(["tpch", "--query", "3,c1"]).query == (3, "c1")
    assert parser.parse_args(["bench", "--queries", "c1,c2,c3"]).queries == (
        "c1",
        "c2",
        "c3",
    )
    assert parser.parse_args(["ssb", "--query", "c.1"]).query == ("c.1",)
    assert parser.parse_args(["workload", "--tpch", "5,c1"]).tpch == (5, "c1")


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
    """Every run command takes ``--partition-rows``; the query commands
    hand it to their RunConfig."""
    from repro.__main__ import _run_config

    parser = build_parser()
    for argv in (
        ["tpch", "--partition-rows", "8192"],
        ["ssb", "--partition-rows", "2048"],
        ["bench", "--partition-rows", "4096"],
        ["workload", "--partition-rows", "1024"],
        ["ingest", "--partition-rows", "512"],
    ):
        args = parser.parse_args(argv)
        assert args.partition_rows == int(argv[2])
        if argv[0] in ("tpch", "ssb", "bench"):
            assert _run_config(args).partition_rows == int(argv[2])


@pytest.mark.parametrize(
    "argv",
    [
        ["tpch", "--threads", "2"],
        ["ssb", "--threads", "2"],
        ["bench", "--threads", "2"],
        ["bench", "--parallel-compare", "2"],
        ["workload", "--threads", "2"],
        ["ingest", "--threads", "2"],
        ["serve", "--threads", "2"],
        ["loadtest", "--threads", "2"],
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
    args = parser.parse_args(
        ["loadtest", "--queries", "3,q5,c1", "--connections", "2",
         "--spawn", "--cold-warm"]
    )
    assert args.queries == ["q3", "q5", "c1"]
    assert args.spawn and args.cold_warm


def test_loadtest_spawn_cold_warm_writes_v7_record(tmp_path, capsys):
    import json

    path = tmp_path / "loadtest.json"
    code = main(
        [
            "loadtest", "--spawn", "--sf", "0.002", "--connections", "2",
            "--requests", "8", "--queries", "q3,q5", "--workers", "2",
            "--cold-warm", "--check-digests", "--json", str(path),
        ]
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["schema"] == "repro-bench/v7"
    assert doc["kind"] == "loadtest-cold-warm"
    for phase in ("cold", "warm"):
        assert doc[phase]["outcomes"] == {"ok": 8}
        assert doc[phase]["digest_check"]["identical"] is True
        assert doc[phase]["server_stats"]["server"]["pending_jobs"] == 0
    out = capsys.readouterr().out
    assert "digest check vs in-process oracle: identical" in out


def test_client_against_dead_server_is_typed_error(capsys):
    code = main(["client", "--port", "1", "--ping"])
    assert code == 1
    assert "ConnectionLost" in capsys.readouterr().err
