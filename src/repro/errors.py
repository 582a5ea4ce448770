"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the common failure classes below.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A table/column was referenced that does not exist or has a bad type."""


class PlanError(ReproError):
    """A query specification is malformed (unknown alias, disconnected
    join graph where connectivity is required, bad edge kind, ...)."""


class PlanValidationError(PlanError):
    """A plan failed static semantic analysis before execution.

    Raised by :func:`repro.analysis.validate`, which the server's
    pre-admission gate calls.  ``diagnostics`` carries every analyzer
    finding, warnings too — objects (or plain dicts, when rebuilt from
    a wire frame) exposing ``code`` / ``severity`` / ``message`` /
    ``path``.
    """

    def __init__(
        self,
        message: str = "plan failed static validation",
        *,
        diagnostics: tuple = (),
    ) -> None:
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


class ExecutionError(ReproError):
    """A runtime failure inside the execution engine."""


class FilterError(ReproError):
    """Invalid configuration or use of a transferable filter."""


# ----------------------------------------------------------------------
# Resilience taxonomy (service-layer per-query failure classes)
# ----------------------------------------------------------------------
# Every class below is a *clean, typed* per-query outcome: the engine's
# invariant is that a query either returns a result byte-identical to
# the serial eager oracle or raises exactly one of these — never a
# wrong answer, a deadlock, or a leaked worker slot.  They are raised
# at cooperative checkpoints, preserved across service futures, and
# counted in ``EngineStats`` and chaos cells under their ``outcome``
# label.


class QueryAborted(ReproError):
    """Base class for queries stopped before producing a result
    (deadline, cancellation, admission control, memory budget)."""

    #: Per-query outcome label.
    outcome = "aborted"


class QueryTimeout(QueryAborted):
    """The query's deadline passed before it finished.

    Raised at the next cooperative checkpoint after the deadline
    (phase boundaries and chunk-kernel boundaries), so the worker slot
    is reclaimed promptly and no partially-built artifact is ever
    committed to a shared cache.
    """

    outcome = "timeout"

    def __init__(self, message: str = "query deadline exceeded",
                 *, elapsed: float | None = None) -> None:
        if elapsed is not None:
            message = f"{message} (after {elapsed:.3f}s)"
        super().__init__(message)
        self.elapsed = elapsed


class QueryCancelled(QueryAborted):
    """The query's cancellation token was triggered
    (``CancelToken.cancel()`` or an engine shutdown)."""

    outcome = "cancelled"


#: Floor (seconds) on every ``retry_after`` hint, applied where
#: :class:`EngineSaturated` is built: by the engine and by the client
#: decoding a ``RETRY`` frame.  The engine's load-derived estimate can
#: race to ~0 when the recorded average query time is tiny; a zero hint
#: turns every retrying client into a hot-spin loop against an
#: already-saturated engine.
MIN_RETRY_AFTER = 0.05


class EngineSaturated(QueryAborted):
    """Admission control rejected the query: the engine's pending
    queue is full.

    ``retry_after`` is the server's backoff hint in seconds (an
    estimate of when a slot should free up), clamped to at least
    :data:`MIN_RETRY_AFTER` so a degenerate ~0 hint can never drive a
    hot-spin retry loop; the network client's retry loop
    (:meth:`repro.service.client.RetryPolicy.run`) honours it.
    """

    outcome = "rejected"

    def __init__(self, message: str = "engine saturated",
                 *, retry_after: float = 0.1) -> None:
        retry_after = max(float(retry_after), MIN_RETRY_AFTER)
        super().__init__(f"{message} (retry_after={retry_after:.3f}s)")
        self.retry_after = retry_after


class MemoryBudgetExceeded(QueryAborted):
    """The query's memory budget is exhausted even after graceful
    degradation (exact-set filters already fell back to Bloom)."""

    outcome = "budget"


# ----------------------------------------------------------------------
# Wire taxonomy (network serving layer)
# ----------------------------------------------------------------------
# The asyncio server and the bundled client extend the per-query
# invariant across the network: every failure at the wire — a malformed
# or oversized frame, a peer that vanished, a server that is draining —
# maps to exactly one of the typed classes below (or to one of the
# per-query classes above, reconstructed client-side from the ERROR
# frame's code).  See ``repro/service/protocol.py`` for the
# code ↔ exception mapping.


class TransportError(ReproError):
    """Base class for wire-level failures (framing, connection)."""


class ProtocolError(TransportError):
    """The peer sent bytes that do not form a valid protocol frame
    (bad JSON, missing/unknown ``type``, wrong field types).

    Server-side this is answered with a typed ``ERROR`` frame and the
    connection loop keeps serving — framing stays intact because the
    length prefix lets the reader skip a bad body."""


class FrameTooLarge(ProtocolError):
    """A frame's declared length exceeds the configured limit."""

    def __init__(self, length: int, limit: int) -> None:
        super().__init__(
            f"frame of {length} bytes exceeds the {limit}-byte limit"
        )
        self.length = length
        self.limit = limit


class ConnectionLost(TransportError):
    """The connection died mid-exchange (peer reset, EOF before a
    response, or an I/O timeout waiting for one).

    Raised client-side; a request that ended here may or may not have
    executed server-side — the server cancels work for vanished
    clients, but the response can be lost after commit.  Idempotent
    reads (every query here) are safe to re-issue on a fresh
    connection."""


class ServiceUnavailable(QueryAborted):
    """The server is draining (graceful shutdown) and no longer
    admits new queries; in-flight responses still resolve."""

    outcome = "unavailable"


class RemoteError(ReproError):
    """A server-side failure relayed over the wire whose code has no
    richer local reconstruction (``internal`` and unknown codes)."""

    def __init__(self, message: str, *, code: str = "internal",
                 remote_type: str | None = None) -> None:
        super().__init__(message)
        self.code = code
        self.remote_type = remote_type


class FaultInjected(ExecutionError):
    """An induced failure from the deterministic fault-injection
    harness (:mod:`repro.testing.faults`).

    Derives from :class:`ExecutionError` so chaos tests exercise the
    exact propagation path of a real runtime failure while remaining
    distinguishable from organic errors.
    """

    def __init__(self, point: str, hit: int) -> None:
        super().__init__(f"injected fault at {point!r} (hit #{hit})")
        self.point = point
        self.hit = hit
