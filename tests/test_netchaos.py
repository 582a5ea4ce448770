"""Reduced network-chaos sweep (CI runs the full grid via
``python -m repro.testing.chaos --network``).

Each case asserts the wire invariant end-to-end: an injected network
fault yields a clean typed client error or a digest byte-identical to
the in-process oracle, no worker slot leaks, and the same server
recovers immediately afterwards.
"""

from __future__ import annotations

import pytest

from repro.core.runner import RunConfig
from repro.service import Engine, ServerConfig, ServerThread
from repro.testing.chaos import (
    CHAOS_PARTITION_ROWS,
    NETWORK_CASES,
    network_drain_block,
    oracle_digest,
    run_network_case,
)
from repro.tpch import generate_tpch
from repro.tpch.queries import get_query

SF = 0.002
_CASES = {c.name: c for c in NETWORK_CASES}
#: The representative subset for the tier-1 suite: one fault per wire
#: seam (accept/read/write) in its nastiest flavour, plus an
#: engine-side fault crossing the wire.
SUBSET = (
    "net-accept-drop",
    "net-read-disconnect-midquery",
    "net-write-drop",
    "net-write-disconnect",
    "engine-submit-raise",
)


@pytest.fixture(scope="module")
def world():
    catalog = generate_tpch(sf=SF, seed=0)
    spec = get_query(3, sf=SF)
    oracle = oracle_digest(spec, catalog, "predtrans")
    return catalog, spec, oracle


def test_subset_names_exist():
    assert set(SUBSET) <= set(_CASES)


@pytest.mark.parametrize("name", SUBSET)
def test_network_fault_case(world, name):
    catalog, spec, oracle = world
    engine = Engine(
        catalog,
        config=RunConfig(
            strategy="predtrans",
            partition_rows=CHAOS_PARTITION_ROWS,
        ),
        workers=2,
        max_pending=16,
    )
    try:
        with ServerThread(
            engine,
            {spec.name: spec},
            config=ServerConfig(read_timeout=2.0, write_timeout=2.0),
        ) as st:
            cell = run_network_case(
                _CASES[name],
                st.host,
                st.port,
                engine,
                spec.name,
                oracle,
                "predtrans",
                "lazy",
                seed=0,
            )
    finally:
        engine.shutdown(wait=True, cancel=True)
    assert cell["ok"], cell
    assert cell["faults_triggered"] >= 1
    assert cell["recovered"] and cell["slots_clean"]


def test_graceful_drain_under_concurrent_load(world):
    catalog, spec, oracle = world
    block = network_drain_block(catalog, spec, oracle, seed=0)
    assert block["ok"], block
    # Every client resolved — typed or identical, never a hang.
    assert not block["hung_clients"]
    assert len(block["outcomes"]) == block["clients"]
    assert all(
        o == "identical" or o.startswith("error:")
        for o in block["outcomes"]
    )
    assert block["slots_clean"]
