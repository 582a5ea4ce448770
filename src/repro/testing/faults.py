"""Deterministic fault injection for resilience testing.

Production modules expose **named injection points** — one-line
:func:`fault_point` calls at the places where a real deployment fails:

===================  ====================================================
point                fires
===================  ====================================================
``filter.build``     after a transferable filter is built, *before* it
                     is committed to any cache or applied
``cache.get``        on a shared :class:`~repro.cache.store.FilterCache`
                     lookup that found an entry, before validation
``cache.put``        on a shared cache insertion, before the entry is
                     stored (a failed backend write)
``chunk.kernel``     before the scan evaluates a local predicate over
                     one partition that zone maps did not prune
``worker.submit``    when the service engine hands a query to its pool
``net.accept``       when the asyncio server accepts a connection,
                     before any frame is served
``net.read``         before the server reads a frame from a connection
``net.write``        before the server writes a response frame
``ingest.stage``     when an :class:`~repro.storage.catalog.IngestBatch`
                     stages a delta table, before it is recorded
``ingest.commit``    inside the catalog lock at the top of an ingest
                     commit, before any table or version is published
===================  ====================================================

When no plan is active (the default, always in production) a fault
point is a single ``is None`` check.  Tests activate a seeded
:class:`FaultPlan` with :func:`inject`; each :class:`FaultRule` then
*raises* a typed :class:`~repro.errors.FaultInjected`, *delays* (to
widen race windows deterministically), or *corrupts* the payload
(cache reads only — see below) on the Nth hit of its point.

The ``net.*`` points model the network itself misbehaving, so they
support two extra actions: ``disconnect`` raises a real
``ConnectionResetError`` (the exact exception a TCP reset produces, so
the server's handling of an injected reset *is* its handling of a real
one) and ``drop`` makes the I/O silently vanish — the caller of
:func:`fault_point` receives the ``"drop"`` verdict and skips the
write (a blackholed response the peer will time out waiting for) or
closes the fresh connection unserved (``net.accept``).

Determinism: hits are counted per point under a lock, rules trigger on
exact hit indices, and the corruption bytes come from a
``numpy`` generator seeded by ``FaultPlan.seed`` — the same plan over
the same workload produces the same failures.

Why ``corrupt`` is restricted to ``cache.get``: cache payloads are
shared in-process by reference, so flipping bits in a filter that a
query is *currently using* would manufacture an undetectable wrong
answer — precisely what the harness asserts can never happen.
Corrupting at read time models bit rot / a clobbered backend entry at
the one place the store can detect it (checksum validation runs right
after the hook), and the store drops the entry on detection so no
other reader ever sees it.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..errors import FaultInjected, PlanError

#: Registered injection-point names → actions allowed there.
FAULT_POINTS: dict[str, frozenset[str]] = {
    "filter.build": frozenset({"raise", "delay"}),
    "cache.get": frozenset({"raise", "delay", "corrupt"}),
    "cache.put": frozenset({"raise", "delay"}),
    "chunk.kernel": frozenset({"raise", "delay"}),
    "worker.submit": frozenset({"raise", "delay"}),
    "net.accept": frozenset({"raise", "delay", "disconnect", "drop"}),
    "net.read": frozenset({"raise", "delay", "disconnect"}),
    "net.write": frozenset({"raise", "delay", "disconnect", "drop"}),
    "ingest.stage": frozenset({"raise", "delay"}),
    "ingest.commit": frozenset({"raise", "delay"}),
}


@dataclass(frozen=True)
class FaultRule:
    """One induced failure: ``action`` at ``point`` on the Nth hit.

    Parameters
    ----------
    point:
        A name from :data:`FAULT_POINTS`.
    action:
        ``"raise"`` (typed :class:`FaultInjected`), ``"delay"``
        (sleep ``delay`` seconds), ``"corrupt"`` (flip bytes of the
        payload in place; ``cache.get`` only), ``"disconnect"``
        (raise ``ConnectionResetError``; ``net.*`` only) or ``"drop"``
        (return the ``"drop"`` verdict so the I/O silently vanishes;
        ``net.accept``/``net.write`` only).
    nth:
        1-based hit index of ``point`` at which the rule first fires.
    count:
        How many consecutive hits fire (``None`` = every hit from
        ``nth`` on).
    delay:
        Sleep duration for ``action="delay"``.
    """

    point: str
    action: str = "raise"
    nth: int = 1
    count: int | None = 1
    delay: float = 0.01

    def __post_init__(self) -> None:
        allowed = FAULT_POINTS.get(self.point)
        if allowed is None:
            raise PlanError(
                f"unknown fault point {self.point!r}; "
                f"known: {sorted(FAULT_POINTS)}"
            )
        if self.action not in allowed:
            raise PlanError(
                f"action {self.action!r} not allowed at {self.point!r} "
                f"(allowed: {sorted(allowed)})"
            )
        if self.nth < 1:
            raise PlanError("nth is 1-based and must be >= 1")
        if self.count is not None and self.count < 1:
            raise PlanError("count must be >= 1 (or None for unbounded)")

    def fires_on(self, hit: int) -> bool:
        """Does this rule trigger on the given 1-based hit index?"""
        if hit < self.nth:
            return False
        return self.count is None or hit < self.nth + self.count


@dataclass
class FaultPlan:
    """A seeded, thread-safe set of fault rules plus trigger log.

    ``triggered`` records ``(point, hit, action)`` for every rule
    firing, so tests can assert a fault actually happened (a sweep
    case whose fault never fired proves nothing).
    """

    rules: list[FaultRule] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._hits: dict[str, int] = {}  # guarded-by: _lock
        self._rng = np.random.default_rng(self.seed)
        self.triggered: list[tuple[str, int, str]] = []

    def hits(self, point: str) -> int:
        with self._lock:
            return self._hits.get(point, 0)

    def on_hit(self, point: str, payload: object) -> str | None:
        """Advance the point's hit counter and apply any firing rule.

        Returns ``"drop"`` when a drop rule fired (the caller owns the
        drop semantics — skip the write, close the connection unserved)
        and ``None`` otherwise.  Raising actions win over the drop
        verdict; delays apply before either.
        """
        with self._lock:
            hit = self._hits.get(point, 0) + 1
            self._hits[point] = hit
            firing = [r for r in self.rules
                      if r.point == point and r.fires_on(hit)]
            for rule in firing:
                self.triggered.append((point, hit, rule.action))
            # Draw corruption randomness under the lock for determinism
            # even if two threads hit the same point concurrently.
            corrupt_draws = [
                self._rng.integers(0, 2**63 - 1)
                for r in firing if r.action == "corrupt"
            ]
        delay = 0.0
        verdict: str | None = None
        raised: Exception | None = None
        for rule in firing:
            if rule.action == "delay":
                delay = max(delay, rule.delay)
            elif rule.action == "corrupt":
                _corrupt_payload(payload, int(corrupt_draws.pop(0)))
            elif rule.action == "raise":
                raised = FaultInjected(point, hit)
            elif rule.action == "disconnect":
                raised = ConnectionResetError(
                    f"injected disconnect at {point!r} (hit #{hit})"
                )
            elif rule.action == "drop":
                verdict = "drop"
        if delay:
            time.sleep(delay)
        if raised is not None:
            raise raised
        return verdict


def _corrupt_payload(payload: object, seed: int) -> None:
    """Flip bytes of the payload's backing arrays in place.

    Understands the shapes the filter cache stores: a bare ndarray, a
    dict of ndarrays, and Bloom/exact/bitmap filter objects.  Silently does
    nothing for opaque payloads (the checksum layer skips those too).
    """
    arrays = _payload_arrays(payload)
    if not arrays:
        return
    rng = np.random.default_rng(seed)
    target = arrays[int(rng.integers(0, len(arrays)))]
    if target.size == 0:
        return
    flat = target.reshape(-1).view(np.uint8)
    pos = int(rng.integers(0, flat.size))
    flat[pos] ^= np.uint8(0xFF)


def _payload_arrays(payload: object) -> list[np.ndarray]:
    """The mutable ndarrays backing a cache payload (checksum scope)."""
    if isinstance(payload, np.ndarray):
        return [payload]
    if isinstance(payload, dict):
        return [v for _, v in sorted(payload.items())
                if isinstance(v, np.ndarray)]
    out = []
    for attr in ("_words", "bits"):  # BloomFilter, BitmapFilter
        arr = getattr(payload, attr, None)
        if isinstance(arr, np.ndarray):
            out.append(arr)
    backing = getattr(payload, "_set", None)  # ExactFilter
    if backing is not None:
        for attr in ("_slots", "_occupied"):
            arr = getattr(backing, attr, None)
            if isinstance(arr, np.ndarray):
                out.append(arr)
    return out


# ----------------------------------------------------------------------
# Module-level activation
# ----------------------------------------------------------------------
_ACTIVE: FaultPlan | None = None
_ACTIVATION_LOCK = threading.Lock()


def active_plan() -> FaultPlan | None:
    """The currently-injected plan, if any."""
    return _ACTIVE


def fault_point(point: str, payload: object = None) -> str | None:
    """Production-side hook: apply the active plan's rules, if any.

    A no-op single ``is None`` test when no plan is injected, so the
    hooks are safe on hot paths.  Returns the plan's verdict
    (``"drop"`` for a fired drop rule, else ``None``) so network call
    sites can blackhole the I/O they were about to perform.
    """
    plan = _ACTIVE
    if plan is not None:
        return plan.on_hit(point, payload)
    return None


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate ``plan`` process-wide for the duration of the block.

    Plans do not nest or stack: activation is exclusive (a second
    concurrent ``inject`` raises), keeping hit counting deterministic.
    """
    global _ACTIVE
    with _ACTIVATION_LOCK:
        if _ACTIVE is not None:
            raise PlanError("a fault plan is already active")
        _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = None
