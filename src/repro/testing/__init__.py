"""Deterministic failure-testing utilities.

:mod:`repro.testing.faults` is the fault-injection harness (named
injection points + seeded :class:`~repro.testing.faults.FaultPlan`);
:mod:`repro.testing.chaos` is the one sweep harness that fires those
points in-process, across a live client/server pair and under
concurrent ingest, asserting the never-wrong-results invariant with a
single outcome classifier and one ``repro-chaos/v1`` record.
"""

from .faults import (
    FAULT_POINTS,
    FaultPlan,
    FaultRule,
    fault_point,
    inject,
)

__all__ = [
    "FAULT_POINTS",
    "FaultPlan",
    "FaultRule",
    "fault_point",
    "inject",
]
