"""Wire protocol for the network serving layer: length-prefixed JSON.

Frame format
------------
Every message — request or response, either direction — is one frame::

    +----------------+----------------------------------------+
    | 4 bytes        | N bytes                                |
    | big-endian N   | UTF-8 JSON object (the frame body)     |
    +----------------+----------------------------------------+

The body is always a JSON **object** with a string ``"type"`` field;
requests additionally carry an ``"id"`` the server echoes back, so one
connection can multiplex concurrent requests and match responses by id
regardless of completion order.

Request types: ``QUERY`` (run a registered query), ``INGEST``
(atomically append delta rows to one or more base tables), ``PING``
(liveness / readiness probe), ``STATS`` (engine/cache/server
snapshots) and ``METRICS`` (the Prometheus exposition + ``/varz``
dump for clients without HTTP access to the metrics sidecar).
Response types: ``RESULT``, ``INGESTED``, ``ERROR``, ``RETRY``
(admission control — carries the server's ``retry_after`` backoff
hint), ``PONG``, ``STATS`` and ``METRICS``.

Tracing rides the same frames: ``QUERY`` takes an optional string
``trace_id`` (client-minted, e.g. from an upstream request) which the
server propagates into the query's context and echoes on the matching
``RESULT``/``ERROR``/``RETRY`` frame; without one the server mints a
trace id itself, so every response is attributable either way.

Error-code ↔ exception mapping
------------------------------
``ERROR`` frames carry a stable ``code`` mirroring the typed taxonomy
of :mod:`repro.errors`; the bundled client reconstructs the *same*
exception type from the code, so a caller cannot tell (and need not
care) whether a ``QueryTimeout`` fired in-process or across the wire:

==================  =================================================
code                exception (both directions)
==================  =================================================
``timeout``         :class:`~repro.errors.QueryTimeout`
``cancelled``       :class:`~repro.errors.QueryCancelled`
``budget``          :class:`~repro.errors.MemoryBudgetExceeded`
``saturated``       :class:`~repro.errors.EngineSaturated`
                    (sent as ``RETRY``, never as ``ERROR``)
``unavailable``     :class:`~repro.errors.ServiceUnavailable`
``bad_request``     :class:`~repro.errors.PlanError` (a server-side
                    :class:`~repro.errors.SchemaError` is sent under it)
``invalid_plan``    :class:`~repro.errors.PlanValidationError`
                    (pre-admission static analysis; the frame carries
                    the structured ``diagnostics`` list)
``protocol``        :class:`~repro.errors.ProtocolError`
``frame_too_large`` :class:`~repro.errors.FrameTooLarge` (rebuilt as
                    its base :class:`~repro.errors.ProtocolError`)
``internal``        :class:`~repro.errors.RemoteError` (client side;
                    any untyped server-side failure)
==================  =================================================

Robustness contract: a malformed body inside a well-formed frame is
answered with ``ERROR code=protocol`` and the connection keeps
serving — the length prefix lets the reader skip any bad body.  Only
unrecoverable framing states (a partial frame that never completes, a
declared length beyond the limit that cannot be drained) close the
connection.
"""

from __future__ import annotations

import json
import struct

from ..errors import (
    ConnectionLost,
    EngineSaturated,
    FrameTooLarge,
    MemoryBudgetExceeded,
    PlanError,
    PlanValidationError,
    ProtocolError,
    QueryCancelled,
    QueryTimeout,
    RemoteError,
    ReproError,
    SchemaError,
    ServiceUnavailable,
)

#: 4-byte big-endian unsigned frame-length prefix.
HEADER = struct.Struct(">I")

#: Default per-frame size limit (requests are tiny; responses carry at
#: most a bounded number of result rows).
DEFAULT_MAX_FRAME_BYTES = 4 * 2**20

#: Protocol revision, echoed in PONG/STATS so clients can detect skew.
PROTOCOL_VERSION = 1

REQUEST_TYPES = frozenset({"QUERY", "INGEST", "PING", "STATS", "METRICS"})
RESPONSE_TYPES = frozenset(
    {"RESULT", "INGESTED", "ERROR", "RETRY", "PONG", "STATS", "METRICS"}
)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(
    body: dict, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> bytes:
    """Serialize one frame (header + JSON body).

    Raises :class:`~repro.errors.FrameTooLarge` when the encoded body
    exceeds ``max_frame_bytes`` — the sender's half of the frame-size
    contract, so an oversized response is a local typed error instead
    of a peer-side protocol violation.
    """
    data = json.dumps(body, separators=(",", ":")).encode("utf-8")
    if len(data) > max_frame_bytes:
        raise FrameTooLarge(len(data), max_frame_bytes)
    return HEADER.pack(len(data)) + data


def decode_body(data: bytes) -> dict:
    """Parse and validate one frame body.

    Raises :class:`~repro.errors.ProtocolError` for anything that is
    not a JSON object with a string ``"type"`` — the caller answers
    with an ``ERROR code=protocol`` frame and keeps the connection.
    """
    try:
        body = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame body: {exc}") from None
    if not isinstance(body, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(body).__name__}"
        )
    kind = body.get("type")
    if not isinstance(kind, str):
        raise ProtocolError("frame body is missing a string 'type' field")
    return body


# ----------------------------------------------------------------------
# Request constructors (used by the client; shapes documented for any
# other implementation speaking the protocol)
# ----------------------------------------------------------------------
def query_request(
    request_id: int,
    query: str,
    *,
    strategy: str | None = None,
    materialize: str | None = None,
    timeout_ms: float | None = None,
    include_data: bool = False,
    trace_id: str | None = None,
) -> dict:
    """A ``QUERY`` request: run the registered query named ``query``.

    ``timeout_ms`` is the client's deadline wish; the server clamps it
    against its configured maximum before opening the query's
    :class:`~repro.context.QueryContext`.  ``include_data`` asks for
    the result rows inline (the server caps how many it will ship).
    ``trace_id`` threads a client-owned trace through the server's
    spans; the server echoes it on the response.
    """
    body: dict = {"type": "QUERY", "id": request_id, "query": query}
    if strategy is not None:
        body["strategy"] = strategy
    if materialize is not None:
        body["materialize"] = materialize
    if timeout_ms is not None:
        body["timeout_ms"] = timeout_ms
    if include_data:
        body["include_data"] = True
    if trace_id is not None:
        body["trace_id"] = trace_id
    return body


def ingest_request(request_id: int, tables: dict[str, dict[str, list]]) -> dict:
    """An ``INGEST`` request: append delta rows to base tables.

    ``tables`` maps catalog table name → column name → list of values
    (one list entry per delta row; every column of the target table
    must be present and all lists the same length).  Values are typed
    by the *target table's* schema: numbers for INT64/FLOAT64,
    ``"YYYY-MM-DD"`` strings for DATE, strings for STRING; JSON
    ``null`` marks a null row in any column.  The server stages all
    tables into one transactional catalog commit — the reply is
    ``INGESTED`` with the new version per table, or an ``ERROR`` with
    *nothing* applied.
    """
    return {"type": "INGEST", "id": request_id, "tables": tables}


def ping_request(request_id: int) -> dict:
    """A ``PING`` liveness/readiness probe."""
    return {"type": "PING", "id": request_id}


def stats_request(request_id: int) -> dict:
    """A ``STATS`` snapshot request."""
    return {"type": "STATS", "id": request_id}


def metrics_request(request_id: int) -> dict:
    """A ``METRICS`` request: the Prometheus exposition over the wire."""
    return {"type": "METRICS", "id": request_id}


def metrics_response(request_id, *, text: str, varz: dict) -> dict:
    """A ``METRICS`` frame: exposition ``text`` plus the ``/varz`` dump."""
    return {
        "type": "METRICS",
        "id": request_id,
        "protocol": PROTOCOL_VERSION,
        "text": text,
        "varz": varz,
    }


# ----------------------------------------------------------------------
# Response constructors (used by the server)
# ----------------------------------------------------------------------
def result_response(
    request_id,
    *,
    digest: str,
    rows: int,
    stats: dict,
    columns: list[str] | None = None,
    data: list[list] | None = None,
    data_truncated: bool = False,
) -> dict:
    """A ``RESULT`` frame: digest + row count + per-query stats.

    The digest is the same value-level
    :func:`~repro.service.workload.result_digest` the in-process
    harnesses use: equal iff column names, logical types, validity and
    decoded values agree in row order, at a cost linear in the result,
    not in the dictionaries behind it.  A remote result can so be
    verified against a local oracle without shipping the data; ``data``
    rides along only when requested and small enough.
    """
    body = {
        "type": "RESULT",
        "id": request_id,
        "digest": digest,
        "rows": rows,
        "stats": stats,
    }
    if columns is not None:
        body["columns"] = columns
    if data is not None:
        body["data"] = data
        body["data_truncated"] = data_truncated
    return body


def ingested_response(
    request_id, *, versions: dict[str, str], rows: int
) -> dict:
    """An ``INGESTED`` frame: the committed version per table.

    ``versions`` maps table name → ``"base.delta"`` version string;
    ``rows`` is the total delta rows committed across all tables.
    Sent only after the atomic commit succeeded — a failed ingest
    answers with ``ERROR`` and the catalog is guaranteed untouched.
    """
    return {
        "type": "INGESTED",
        "id": request_id,
        "protocol": PROTOCOL_VERSION,
        "versions": dict(versions),
        "rows": int(rows),
    }


def retry_response(request_id, retry_after: float) -> dict:
    """A ``RETRY`` frame: admission control asks the client to back off."""
    return {
        "type": "RETRY",
        "id": request_id,
        "retry_after": float(retry_after),
        "code": "saturated",
    }


def error_response(
    request_id,
    code: str,
    message: str,
    *,
    error_type: str | None = None,
    diagnostics: list[dict] | None = None,
) -> dict:
    """An ``ERROR`` frame with a stable taxonomy ``code``.

    ``diagnostics`` (only on ``code=invalid_plan``) is the static
    analyzer's finding list — plain dicts with ``code`` / ``severity``
    / ``message`` / ``path`` — so the client can rebuild the same
    :class:`~repro.errors.PlanValidationError` the engine raises.
    """
    body = {
        "type": "ERROR",
        "id": request_id,
        "code": code,
        "message": message,
    }
    if error_type is not None:
        body["error_type"] = error_type
    if diagnostics is not None:
        body["diagnostics"] = diagnostics
    return body


def pong_response(request_id, *, ready: bool, draining: bool) -> dict:
    """A ``PONG`` frame: liveness always, readiness while not draining."""
    return {
        "type": "PONG",
        "id": request_id,
        "ready": ready,
        "draining": draining,
        "protocol": PROTOCOL_VERSION,
    }


# ----------------------------------------------------------------------
# Error-code mapping
# ----------------------------------------------------------------------
#: The wire taxonomy, both directions, most specific first: the class a
#: server sends under each code, and the class a client rebuilds from
#: it.  Two rows are not round trips: a ``FrameTooLarge`` is rebuilt as
#: its base ``ProtocolError`` (the frame carries no length and limit),
#: and a ``SchemaError`` travels as ``bad_request``, rebuilt as
#: ``PlanError``.  ``saturated`` is sent as a ``RETRY`` frame.
_CODE_BY_TYPE: tuple[tuple[type, str, type], ...] = (
    (QueryTimeout, "timeout", QueryTimeout),
    (QueryCancelled, "cancelled", QueryCancelled),
    (MemoryBudgetExceeded, "budget", MemoryBudgetExceeded),
    (EngineSaturated, "saturated", EngineSaturated),
    (ServiceUnavailable, "unavailable", ServiceUnavailable),
    (FrameTooLarge, "frame_too_large", ProtocolError),
    (ProtocolError, "protocol", ProtocolError),
    (SchemaError, "bad_request", PlanError),
    (PlanValidationError, "invalid_plan", PlanValidationError),
    (PlanError, "bad_request", PlanError),
)

#: Client side: wire code → the class rebuilt from it.
_TYPE_BY_CODE: dict[str, type] = {
    code: rebuilt for _, code, rebuilt in _CODE_BY_TYPE
}


def code_for_exception(exc: BaseException) -> str:
    """The wire code for a server-side failure (``internal`` fallback)."""
    for sent, code, _ in _CODE_BY_TYPE:
        if isinstance(exc, sent):
            return code
    return "internal"


def error_frame_for(request_id, exc: BaseException) -> dict:
    """The ``ERROR``/``RETRY`` frame answering a server-side failure."""
    if isinstance(exc, EngineSaturated):
        return retry_response(request_id, exc.retry_after)
    diagnostics = None
    if isinstance(exc, PlanValidationError):
        diagnostics = [
            d.as_dict() if hasattr(d, "as_dict") else dict(d)
            for d in exc.diagnostics
        ]
    return error_response(
        request_id,
        code_for_exception(exc),
        str(exc),
        error_type=type(exc).__name__,
        diagnostics=diagnostics,
    )


def exception_for_response(body: dict) -> ReproError:
    """Client side: reconstruct the typed exception an ``ERROR`` /
    ``RETRY`` frame describes.

    The mapped codes rebuild the *same* exception classes the
    in-process engine raises, so ``except QueryTimeout`` works
    identically against a local engine and a remote server; unmapped
    codes (``internal`` included) surface as
    :class:`~repro.errors.RemoteError` carrying the remote type name.
    """
    message = str(body.get("message", "remote error"))
    if body.get("type") == "RETRY":
        return EngineSaturated(
            "server saturated",
            retry_after=float(body.get("retry_after", 0.0) or 0.0),
        )
    code = body.get("code", "internal")
    cls = _TYPE_BY_CODE.get(code) if isinstance(code, str) else None
    if cls is None:
        return RemoteError(
            message, code=str(code), remote_type=body.get("error_type")
        )
    if cls is PlanValidationError:
        raw = body.get("diagnostics")
        diags = raw if isinstance(raw, list) else ()
        return cls(message, diagnostics=[d for d in diags if isinstance(d, dict)])
    return cls(message)


# ----------------------------------------------------------------------
# Blocking-socket framing helpers (shared by the client and tests; the
# server uses asyncio streams with the same layout)
# ----------------------------------------------------------------------
def send_frame(sock, body: dict, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
    """Encode and send one frame over a blocking socket."""
    try:
        sock.sendall(encode_frame(body, max_frame_bytes))
    except (BrokenPipeError, ConnectionError, OSError) as exc:
        raise ConnectionLost(f"send failed: {exc}") from None


def recv_exact(sock, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`ConnectionLost`."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 16))
        except TimeoutError:
            raise ConnectionLost(
                f"timed out waiting for {remaining} of {n} frame bytes"
            ) from None
        except (ConnectionError, OSError) as exc:
            raise ConnectionLost(f"recv failed: {exc}") from None
        if not chunk:
            raise ConnectionLost(
                f"connection closed mid-frame ({remaining} of {n} bytes "
                "outstanding)" if chunks or n != HEADER.size
                else "connection closed"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> dict:
    """Read and decode one frame from a blocking socket.

    Raises :class:`~repro.errors.FrameTooLarge` when the peer declares
    a body beyond the limit (the connection is no longer in a usable
    framing state — close it) and :class:`ProtocolError` for a bad
    body (framing is intact; the caller may keep the connection).
    """
    (length,) = HEADER.unpack(recv_exact(sock, HEADER.size))
    if length > max_frame_bytes:
        raise FrameTooLarge(length, max_frame_bytes)
    return decode_body(recv_exact(sock, length))
