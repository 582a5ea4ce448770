"""Deterministic failure-testing utilities.

:mod:`repro.testing.faults` is the fault-injection harness (named
injection points + seeded :class:`~repro.testing.faults.FaultPlan`);
:mod:`repro.testing.chaos` is the sweep driver that exercises every
point across strategies and materialization modes and asserts the
never-wrong-results invariant.
"""

from .faults import (
    FAULT_POINTS,
    FaultPlan,
    FaultRule,
    active_plan,
    fault_point,
    inject,
)

__all__ = [
    "FAULT_POINTS",
    "FaultPlan",
    "FaultRule",
    "active_plan",
    "fault_point",
    "inject",
]
