"""The engine chaos sweep and the classifier every chaos sweep shares.

``tests/test_netchaos.py`` covers a subset of the network sweep and
``tests/test_ingest.py`` runs the ingest sweep; this file runs the whole
engine sweep and pins its outcome counts.
"""

from __future__ import annotations

from concurrent.futures import Future

import pytest

from repro.errors import FaultInjected
from repro.testing.chaos import CHAOS_SCHEMA, classify, main, run_sweep


def test_engine_sweep_outcomes_are_pinned():
    payload = run_sweep()
    assert payload["schema"] == CHAOS_SCHEMA
    assert payload["kind"] == "engine"
    assert payload["summary"] == {
        "cases": 72,
        "identical": 36,
        "typed_errors": 36,
        "faults_triggered": 66,
        "violations": 0,
    }
    assert payload["blocks"]["concurrency"]["ok"]


def _resolved(value: object) -> Future:
    future: Future = Future()
    future.set_result(value)
    return future


def _raise(exc: Exception):
    def call():
        raise exc

    return call


@pytest.mark.parametrize(
    ("call", "accept", "label"),
    [
        (lambda: "d1", "d1", "identical"),
        (lambda: "d2", {"d1", "d2"}, "identical"),
        (lambda: _resolved("d1"), "d1", "identical"),
        (lambda: "d2", "d1", "WRONG_ANSWER"),
        (lambda: "d1", (), "WRONG_ANSWER"),
        (lambda: {"orders": "v1"}, None, "committed"),
        (_raise(FaultInjected("filter.build", 1)), "d1", "error:FaultInjected"),
        (_raise(ValueError("boom")), "d1", "UNTYPED:ValueError"),
    ],
)
def test_classify_labels(call, accept, label):
    assert classify(call, accept) == label


def test_classify_unresolved_future_is_a_hang():
    assert classify(Future, "d1", timeout=0.01) == "HANG"


def test_cli_rejects_two_sweeps_at_once():
    with pytest.raises(SystemExit) as exc:
        main(["--ingest", "--network"])
    assert exc.value.code == 2
