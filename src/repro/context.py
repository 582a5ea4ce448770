"""Cooperative per-query execution context: deadline, cancellation,
memory budget.

The executor is single-threaded per query, so resilience is
**cooperative**: a :class:`QueryContext` travels with the query —
through :class:`~repro.core.runner.RunConfig` into every phase — and
the hot loops call :meth:`QueryContext.check` at natural boundaries:

* the runner checks between phases (scan → transfer → join → post);
* the scan checks before each partition it evaluates, so even a long
  scan aborts within one partition;
* the transfer / semi-join engines check per vertex and per edge.

``check`` raises :class:`~repro.errors.QueryTimeout` once the deadline
passes and :class:`~repro.errors.QueryCancelled` once the token fires.
Because every check sits *between* units of work, an abort never leaves
a partially-built artifact visible: the cross-query filter cache is
only written after a build completes, so a cancelled query simply
disappears.

Memory budgeting rides on the same object: phases charge the bytes of
what they allocate (built filters, materialized tables) against
:attr:`memory_budget`.  Builders that can degrade do so first — an
exact-set filter falls back to a Bloom filter (sound: Bloom filters
have no false negatives, so degraded runs stay byte-identical, they
just pre-filter less precisely) — and only when even the degraded form
cannot fit does :meth:`charge` raise
:class:`~repro.errors.MemoryBudgetExceeded`.
"""

from __future__ import annotations

import threading
import time

from .errors import MemoryBudgetExceeded, QueryCancelled, QueryTimeout


class CancelToken:
    """A thread-safe, latching cancellation flag.

    One token may be shared by several queries (e.g. every query of one
    client): cancelling it aborts them all at their next checkpoint.
    Tokens never reset — open a fresh one per logical unit of work.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Trip the token (idempotent)."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


class QueryContext:
    """Deadline + cancellation token + memory budget for one query.

    Parameters
    ----------
    deadline:
        Absolute ``time.monotonic()`` instant after which
        :meth:`check` raises :class:`QueryTimeout` (``None`` = no
        deadline).  Use :meth:`start` to derive one from a relative
        timeout.
    token:
        Optional shared :class:`CancelToken`; when absent the context
        gets a private one so :meth:`cancel` always works.
    memory_budget:
        Byte budget for query-allocated artifacts (``None`` =
        unlimited).  Phases report allocations via :meth:`charge`.
    """

    __slots__ = (
        "deadline", "token", "memory_budget",
        "mem_used", "mem_peak", "filters_degraded", "_started",
        "trace_id", "parent_span_id",
    )

    def __init__(
        self,
        deadline: float | None = None,
        token: CancelToken | None = None,
        memory_budget: int | None = None,
        trace_id: str | None = None,
        parent_span_id: str | None = None,
    ) -> None:
        self.deadline = deadline
        self.token = token or CancelToken()
        self.memory_budget = memory_budget
        self.mem_used = 0
        self.mem_peak = 0
        self.filters_degraded = 0
        # Observability carriers: the trace id travelling with this
        # query (stamped onto its QueryStats by the runner) and the
        # enclosing span to nest under (the server's request span for
        # wire queries).  None when tracing is off — the runner then
        # skips the stamp entirely.
        self.trace_id = trace_id
        self.parent_span_id = parent_span_id
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    @classmethod
    def start(
        cls,
        timeout: float | None = None,
        token: CancelToken | None = None,
        memory_budget: int | None = None,
        trace_id: str | None = None,
        parent_span_id: str | None = None,
    ) -> "QueryContext":
        """A context whose deadline is ``timeout`` seconds from now."""
        deadline = None if timeout is None else time.monotonic() + timeout
        return cls(
            deadline=deadline,
            token=token,
            memory_budget=memory_budget,
            trace_id=trace_id,
            parent_span_id=parent_span_id,
        )

    # ------------------------------------------------------------------
    def cancel(self) -> None:
        """Trip this context's cancellation token."""
        self.token.cancel()

    @property
    def cancelled(self) -> bool:
        return self.token.cancelled

    def remaining(self) -> float | None:
        """Seconds until the deadline (``None`` when none is set)."""
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def expired(self) -> bool:
        """Has the deadline passed?"""
        return self.deadline is not None and time.monotonic() >= self.deadline

    def check(self, where: str = "") -> None:
        """Raise the matching typed error if cancelled or past deadline.

        Cancellation wins over timeout when both hold: an operator
        (or the engine's shutdown) asked for the abort explicitly, so
        the query should report *cancelled*, not coincidentally
        *timed out*.
        """
        if self.token.cancelled:
            raise QueryCancelled(
                f"query cancelled{f' at {where}' if where else ''}"
            )
        if self.expired():
            raise QueryTimeout(
                f"query deadline exceeded{f' at {where}' if where else ''}",
                elapsed=time.monotonic() - self._started,
            )

    # ------------------------------------------------------------------
    # Memory budget
    # ------------------------------------------------------------------
    def would_exceed(self, nbytes: int) -> bool:
        """Would charging ``nbytes`` more overrun the budget?

        Builders with a cheaper fallback representation consult this
        *before* allocating the expensive form (the exact-set → Bloom
        degradation path).
        """
        if self.memory_budget is None:
            return False
        return self.mem_used + nbytes > self.memory_budget

    def charge(self, nbytes: int, what: str = "") -> None:
        """Account ``nbytes`` of query-held allocation.

        Raises :class:`MemoryBudgetExceeded` when the budget is
        overrun; the charge is still recorded first so the error path
        reports the true high-water mark.
        """
        self.mem_used += int(nbytes)
        if self.mem_peak < self.mem_used:
            self.mem_peak = self.mem_used
        if self.memory_budget is not None and self.mem_used > self.memory_budget:
            raise MemoryBudgetExceeded(
                f"memory budget exceeded: {self.mem_used} bytes used "
                f"of {self.memory_budget}"
                f"{f' (while allocating {what})' if what else ''}"
            )

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` to the budget (a freed intermediate)."""
        self.mem_used = max(0, self.mem_used - int(nbytes))

    def note_degraded(self) -> None:
        """Record one exact→Bloom filter degradation."""
        self.filters_degraded += 1
