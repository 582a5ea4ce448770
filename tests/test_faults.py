"""Fault-injection harness semantics: rules, plans, corruption, hooks."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.cache.store import FilterCache, payload_checksum
from repro.errors import FaultInjected, PlanError
from repro.testing import (
    FAULT_POINTS,
    FaultPlan,
    FaultRule,
    fault_point,
    inject,
)


# ----------------------------------------------------------------------
# Rule validation
# ----------------------------------------------------------------------
def test_unknown_point_rejected():
    with pytest.raises(PlanError):
        FaultRule("no.such.point", "raise")


def test_disallowed_action_rejected():
    # "corrupt" is cache.get-only: corrupting at build/put would mutate
    # a filter the running query still holds by reference.
    with pytest.raises(PlanError):
        FaultRule("filter.build", "corrupt")
    assert "corrupt" in FAULT_POINTS["cache.get"]


@pytest.mark.parametrize("kwargs", [{"nth": 0}, {"count": 0}, {"nth": -1}])
def test_bad_counters_rejected(kwargs):
    with pytest.raises(PlanError):
        FaultRule("filter.build", "raise", **kwargs)


def test_fires_on_window():
    rule = FaultRule("filter.build", "raise", nth=2, count=2)
    assert [h for h in range(1, 7) if rule.fires_on(h)] == [2, 3]


# ----------------------------------------------------------------------
# Activation & hit semantics
# ----------------------------------------------------------------------
def test_fault_point_inactive_is_noop():
    assert fault_point("filter.build") is None  # must not raise


def test_raise_carries_point_and_hit():
    plan = FaultPlan([FaultRule("filter.build", "raise")])
    with inject(plan):
        with pytest.raises(FaultInjected) as err:
            fault_point("filter.build")
    assert err.value.point == "filter.build"
    assert err.value.hit == 1
    assert plan.triggered == [("filter.build", 1, "raise")]
    assert fault_point("filter.build") is None  # cleared on exit


def test_nth_hit_only():
    plan = FaultPlan([FaultRule("chunk.kernel", "raise", nth=3)])
    with inject(plan):
        fault_point("chunk.kernel")
        fault_point("chunk.kernel")
        with pytest.raises(FaultInjected):
            fault_point("chunk.kernel")
        fault_point("chunk.kernel")  # count=1: window closed again
    assert [hit for _, hit, _ in plan.triggered] == [3]


def test_points_count_independently():
    plan = FaultPlan([FaultRule("cache.put", "raise", nth=2)])
    with inject(plan):
        fault_point("filter.build")  # other points never advance the rule
        fault_point("cache.put")
        with pytest.raises(FaultInjected):
            fault_point("cache.put")


def test_delay_action_sleeps():
    plan = FaultPlan([FaultRule("filter.build", "delay", delay=0.05)])
    with inject(plan):
        t0 = time.perf_counter()
        fault_point("filter.build")
        assert time.perf_counter() - t0 >= 0.05


def test_inject_is_exclusive():
    with inject(FaultPlan([])):
        with pytest.raises(PlanError):
            with inject(FaultPlan([])):
                pass


# ----------------------------------------------------------------------
# Corruption
# ----------------------------------------------------------------------
def _corrupted_copy(seed: int) -> np.ndarray:
    payload = np.arange(64, dtype=np.uint64)
    plan = FaultPlan([FaultRule("cache.get", "corrupt")], seed=seed)
    with inject(plan):
        fault_point("cache.get", payload)
    assert plan.triggered
    return payload


def test_corrupt_flips_exactly_one_byte():
    clean = np.arange(64, dtype=np.uint64).tobytes()
    dirty = _corrupted_copy(seed=7).tobytes()
    assert sum(a != b for a, b in zip(clean, dirty)) == 1


def test_corrupt_is_deterministic_per_seed():
    assert np.array_equal(_corrupted_copy(seed=7), _corrupted_copy(seed=7))
    assert not np.array_equal(_corrupted_copy(seed=7), _corrupted_copy(seed=8))


# ----------------------------------------------------------------------
# Checksum-validated cache under corruption
# ----------------------------------------------------------------------
def _fp(tag: str) -> str:
    return f"fingerprint-{tag}"


def test_checksum_detects_corruption_and_rebuilds():
    cache = FilterCache(max_bytes=1 << 20)
    cache.put(_fp("a"), np.arange(128, dtype=np.uint64), tables=("t",))
    assert cache.get(_fp("a")) is not None
    plan = FaultPlan([FaultRule("cache.get", "corrupt")])
    with inject(plan):
        # The flipped byte must be detected: entry dropped, miss
        # returned, corruption counted -- never served.
        assert cache.get(_fp("a")) is None
    stats = cache.stats()
    assert stats.corruptions == 1
    assert len(cache) == 0  # dropped, so the caller rebuilds


def test_payload_checksum_shapes():
    arr = np.arange(8, dtype=np.int64)
    assert payload_checksum(arr) == payload_checksum(arr.copy())
    assert payload_checksum(arr) != payload_checksum(arr[::-1].copy())
    # dict payloads hash order-independently (sorted by key)
    d1 = {"a": arr, "b": arr * 2}
    d2 = {"b": arr * 2, "a": arr}
    assert payload_checksum(d1) == payload_checksum(d2)
    assert payload_checksum(object()) is None  # nothing array-backed
