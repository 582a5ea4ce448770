"""Fault-tolerant asyncio network server over the service Engine.

Pure-stdlib serving layer: an :mod:`asyncio` TCP server speaking the
length-prefixed JSON frame protocol of :mod:`.protocol`, multiplexing
any number of client connections (and concurrent requests *per*
connection — requests carry ids, responses are matched by id) onto the
existing thread-pool :class:`~repro.service.engine.Engine`.

Robustness is the design center; every wire-level failure mode maps to
a typed, recoverable outcome:

* **Deadline propagation** — a client's ``timeout_ms`` is clamped to
  :attr:`ServerConfig.max_timeout_ms` and opens the query's
  :class:`~repro.context.QueryContext`, so a remote deadline aborts
  with the same typed ``QueryTimeout`` (answered as an ``ERROR
  code=timeout`` frame) as a local one.
* **Disconnect detection** — when a connection drops (EOF, reset, or
  an injected ``net.read`` fault), every query it still has in flight
  is cancelled through its :class:`~repro.context.CancelToken`; the
  engine reclaims the worker slot and counts the cancellation.  An
  abandoned query never holds a worker.
* **Transactional ingest** — ``INGEST`` frames decode and
  schema-validate their delta tables *before* anything is staged, then
  commit through :meth:`Engine.ingest`'s all-or-nothing catalog
  transaction: the reply is ``INGESTED`` with the new per-table
  versions, or a typed ``ERROR`` with the catalog untouched.  Queries
  already in flight keep their pinned snapshot either way.
* **Admission control** — :class:`~repro.errors.EngineSaturated`
  becomes a ``RETRY`` frame carrying the engine's (floored)
  ``retry_after`` hint, which the bundled client honours with
  seeded-jitter backoff.
* **Framing defence** — oversized frames are drained and answered
  with ``ERROR code=frame_too_large``; malformed bodies with ``ERROR
  code=protocol``; both leave the connection loop serving.  Only a
  peer that stalls mid-frame (read timeout) or cannot be written to
  (write timeout) gets its connection closed — after cancelling its
  in-flight work.
* **Graceful drain** — :meth:`QueryServer.drain` (wired to
  SIGTERM/SIGINT by :func:`run_server`) stops accepting, lets
  in-flight queries finish within a grace period, then cancels the
  rest cooperatively; every pending request resolves with a real
  result or a typed error — never a hang, never a bare
  ``CancelledError``.  ``PING`` reports ``ready=false`` while
  draining and new ``QUERY`` frames are answered ``ERROR
  code=unavailable``.

Fault injection: the server's accept/read/write paths are instrumented
with the ``net.accept`` / ``net.read`` / ``net.write`` points of
:mod:`repro.testing.faults`, so the chaos harness can inject delays,
drops and disconnects at the exact seams where real networks fail.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from types import NoneType

import numpy as np
from collections.abc import Awaitable, Callable, Mapping
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import NamedTuple

from ..analysis import validate
from ..core.runner import RunConfig
from ..context import CancelToken
from ..engine.stats import metric_field
from ..errors import (
    FaultInjected,
    FrameTooLarge,
    PlanError,
    ProtocolError,
    ReproError,
    SchemaError,
    ServiceUnavailable,
)
from ..obs.adapters import ObsCollector
from ..obs.httpd import MetricsServer
from ..obs.metrics import MetricsRegistry
from ..obs.slowlog import SlowQueryLog
from ..obs.trace import Span, TraceSink, mint_span_id, mint_trace_id
from ..plan.query import QuerySpec
from ..storage.column import Column, DType
from ..storage.table import Table
from ..testing.faults import fault_point
from .engine import Engine
from .protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    HEADER,
    PROTOCOL_VERSION,
    decode_body,
    encode_frame,
    error_frame_for,
    ingested_response,
    metrics_response,
    pong_response,
    result_response,
)

#: Seconds :meth:`QueryServer.drain` gives in-flight queries to finish
#: before cancelling them, when its caller names no grace.
DRAIN_GRACE = 10.0


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one :class:`QueryServer`.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`QueryServer.port` after :meth:`~QueryServer.start`).
    ``read_timeout`` guards *mid-frame* stalls (a slow client that
    started a frame must finish it); a quiet connection waiting to
    send its *next* frame may stay open forever.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    #: Ceiling for client-supplied ``timeout_ms`` (clamp, not reject).
    max_timeout_ms: float = 60_000.0
    #: Deadline applied when the client sends none (``None`` = none).
    default_timeout_ms: float | None = None
    read_timeout: float = 10.0
    write_timeout: float = 10.0
    #: Cap on inline result rows shipped when a client asks for data.
    max_result_rows: int = 10_000

    def __post_init__(self) -> None:
        if self.max_frame_bytes < HEADER.size + 2:
            raise ValueError("max_frame_bytes is too small to frame anything")
        if self.max_timeout_ms <= 0:
            raise ValueError("max_timeout_ms must be positive")


@dataclass
class ServerStats:
    """The wire server's counters, mutated on the event-loop thread
    only, and the three gauges a :meth:`QueryServer.stats` copy
    fills in."""

    connections_total: int = metric_field(
        "counter", "repro_server_connections_total", "Connections accepted"
    )
    queries_total: int = metric_field(
        "counter", "repro_server_wire_queries_total", "QUERY frames dispatched"
    )
    ingests_total: int = metric_field(
        "counter", "repro_server_wire_ingests_total",
        "INGEST frames dispatched",
    )
    protocol_errors: int = metric_field(
        "counter", "repro_server_protocol_errors_total",
        "Malformed/oversized/unknown frames answered with typed errors",
    )
    cancelled_by_disconnect: int = metric_field(
        "counter", "repro_server_cancelled_by_disconnect_total",
        "In-flight queries aborted because their connection died",
    )
    connections: int = metric_field(
        "gauge", "repro_server_connections", "Live connections"
    )
    inflight: int = metric_field(
        "gauge", "repro_server_inflight",
        "QUERY and INGEST tasks currently being served",
    )
    draining: bool = metric_field(
        "gauge", "repro_server_draining",
        "1 while draining (graceful shutdown)", default=False,
    )


class _ConnectionClosed(Exception):
    """Internal: the peer went away (EOF/reset) — close quietly."""


class _SlowPeer(Exception):
    """Internal: mid-frame read or write timed out — close defensively."""


class _Conn:
    """Per-connection state: writer + in-flight cancellation tokens."""

    __slots__ = ("writer", "write_lock", "tokens", "alive")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.tokens: set[CancelToken] = set()
        self.alive = True

    def abort_inflight(self) -> int:
        """Cancel every query this connection still has in flight."""
        tokens = list(self.tokens)
        for token in tokens:
            token.cancel()
        return len(tokens)


def _json_value(value):
    """A JSON-safe rendering of one result cell."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    item = getattr(value, "item", None)
    if item is not None:  # numpy scalar
        return item()
    return str(value)


class _WireType(NamedTuple):
    """How one logical type travels in an ``INGEST`` frame."""

    want: str  # the wire form, for error messages
    types: frozenset[type]  # the exact JSON value types it accepts
    null: object  # stands in for a JSON null under the validity mask
    build: Callable[[list], Column]


# ``type(True) is bool``, so exact types keep booleans out of the
# numeric columns and integers out of BOOL.
_WIRE_TYPES: dict[DType, _WireType] = {
    DType.INT64: _WireType("an integer", frozenset({int}), 0, Column.from_ints),
    DType.FLOAT64: _WireType(
        "a number", frozenset({int, float}), 0.0, Column.from_floats
    ),
    DType.DATE: _WireType(
        "a 'YYYY-MM-DD' string", frozenset({str}), "1970-01-01", Column.from_dates
    ),
    DType.STRING: _WireType("a string", frozenset({str}), "", Column.from_strings),
    DType.BOOL: _WireType("a boolean", frozenset({bool}), False, Column.from_bools),
}


def _wire_column(table: str, name: str, dtype: DType, values: list) -> Column:
    """Decode one wire column against the target column's logical type.

    JSON ``null`` marks a null row (a validity mask is attached only
    when at least one appears); everything else must already be the
    dtype's wire form (:data:`_WIRE_TYPES`).  A value of that form the
    column still cannot hold — an integer beyond int64, a malformed
    date — is a :class:`~repro.errors.SchemaError` too.
    """
    wire = _WIRE_TYPES[dtype]
    if not set(map(type, values)) - {NoneType} <= wire.types:
        bad = next(
            v for v in values if v is not None and type(v) not in wire.types
        )
        raise SchemaError(
            f"column {table}.{name} ({dtype.value}) expects {wire.want}, "
            f"got {bad!r}"
        )
    valid = [v is not None for v in values]
    try:
        column = wire.build(
            [v if ok else wire.null for v, ok in zip(values, valid)]
        )
    except (ValueError, TypeError, OverflowError) as exc:
        raise SchemaError(
            f"column {table}.{name} ({dtype.value}): {exc}"
        ) from None
    if all(valid):
        return column
    return Column(
        column.data,
        column.dtype,
        column.dictionary,
        np.asarray(valid, dtype=np.bool_),
    )


def decode_wire_table(name: str, base: Table, payload: object) -> Table:
    """Decode one ``INGEST`` table payload into a delta :class:`Table`.

    The payload must carry *exactly* the base table's columns, each a
    JSON list, all the same (non-zero) length; values are typed by the
    base schema (see :func:`~repro.service.protocol.ingest_request`).
    Any mismatch raises :class:`~repro.errors.SchemaError`, which the
    wire maps to ``ERROR code=bad_request`` — and because decoding
    happens before staging, the catalog is untouched.
    """
    if not isinstance(payload, dict) or not payload:
        raise SchemaError(
            f"INGEST table {name!r} needs a non-empty object of "
            "column name -> list of values"
        )
    schema = base.schema()
    missing = set(schema) - set(payload)
    extra = set(payload) - set(schema)
    if missing or extra:
        raise SchemaError(
            f"INGEST table {name!r} column mismatch: "
            f"missing {sorted(missing)}, unknown {sorted(extra)}"
        )
    lengths = set()
    for col_name, values in payload.items():
        if not isinstance(values, list):
            raise SchemaError(
                f"column {name}.{col_name} must be a JSON list"
            )
        lengths.add(len(values))
    if len(lengths) != 1 or lengths == {0}:
        raise SchemaError(
            f"INGEST table {name!r} needs equal-length, non-empty "
            f"columns (got lengths {sorted(lengths)})"
        )
    columns = {
        col_name: _wire_column(name, col_name, schema[col_name], payload[col_name])
        for col_name in schema  # preserve base declaration order
    }
    return Table(name, columns)


class QueryServer:
    """The asyncio serving front of one :class:`Engine`.

    Parameters
    ----------
    engine:
        The engine to serve.  The server does **not** own it — callers
        shut it down after :meth:`drain` (:class:`ServerThread` is the
        owner that drains it).
    specs:
        The query registry: request ``query`` names → prepared
        :class:`~repro.plan.query.QuerySpec` objects (the wire cannot
        ship arbitrary plan objects; clients name registered queries).
        Every plan is validated here, once: the first invalid one
        raises :class:`~repro.errors.PlanValidationError`, with its
        diagnostics, before any port is bound.
    config:
        Wire/robustness tunables (:class:`ServerConfig`).
    meta:
        Arbitrary JSON-safe facts echoed in ``STATS`` (e.g. ``sf`` /
        ``seed`` of the served catalog, so clients can rebuild an
        in-process oracle for digest verification).
    collector:
        Optional :class:`~repro.obs.adapters.ObsCollector` answering
        ``METRICS`` frames (and backing the HTTP sidecar).  Without
        one, ``METRICS`` is a typed ``unavailable`` error.
    trace_sink:
        Optional :class:`~repro.obs.trace.TraceSink`; when set, every
        wire query gets a *request* span covering the full
        frame-to-frame wall time, and the engine's per-phase spans
        nest under it via the context's ``parent_span_id``.
    """

    def __init__(
        self,
        engine: Engine,
        specs: Mapping[str, QuerySpec],
        *,
        config: ServerConfig | None = None,
        meta: dict | None = None,
        collector: ObsCollector | None = None,
        trace_sink: TraceSink | None = None,
    ) -> None:
        self.engine = engine
        self.specs = dict(specs)
        # A commit never changes a schema (decode_wire_table requires
        # the base table's exact columns), so one verdict per plan
        # holds for every snapshot this server serves.
        for spec in self.specs.values():
            validate(spec, engine.catalog)
        self.config = config or ServerConfig()
        self.meta = dict(meta or {})
        self.collector = collector
        self.trace_sink = trace_sink
        self._server: asyncio.Server | None = None
        self._conns: set[_Conn] = set()
        self._inflight: set[asyncio.Task] = set()
        self._draining = False
        self._drained = asyncio.Event()
        self.port: int | None = None
        self._stats = ServerStats()

    def stats(self) -> ServerStats:
        """The counters, with the gauges read now."""
        return replace(
            self._stats,
            connections=len(self._conns),
            inflight=len(self._inflight),
            draining=self._draining,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    async def drain(self, grace: float | None = None) -> None:
        """Graceful shutdown: stop accepting, resolve everything.

        1. Close the listener (no new connections) and flip
           ``draining`` (new ``QUERY`` frames → ``unavailable``).
        2. Give in-flight queries ``grace`` seconds to finish and send
           their real responses.
        3. Cancel whatever is left through its token — each resolves
           with a typed ``ERROR code=cancelled`` response.
        4. Close every connection.

        Idempotent; concurrent callers all wait for completion.
        """
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        grace = DRAIN_GRACE if grace is None else grace
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        if self._inflight:
            await asyncio.wait(set(self._inflight), timeout=grace)
        if self._inflight:
            for conn in list(self._conns):
                conn.abort_inflight()
            # Cancelled queries abort at their next cooperative
            # checkpoint and their tasks send typed ERROR responses;
            # this wait must therefore terminate (the chaos drain
            # block asserts it does).
            await asyncio.wait(set(self._inflight), timeout=grace)
        for conn in list(self._conns):
            await self._close_conn(conn)
        self._drained.set()

    async def _close_conn(self, conn: _Conn) -> None:
        conn.alive = False
        self._conns.discard(conn)
        conn.abort_inflight()
        with contextlib.suppress(Exception):
            conn.writer.close()
            await conn.writer.wait_closed()

    # ------------------------------------------------------------------
    # Frame I/O
    # ------------------------------------------------------------------
    async def _read_exactly(
        self, reader: asyncio.StreamReader, n: int, timeout: float | None
    ) -> bytes:
        try:
            if timeout is None:
                return await reader.readexactly(n)
            return await asyncio.wait_for(reader.readexactly(n), timeout)
        except TimeoutError:
            raise _SlowPeer(f"peer stalled mid-frame ({n} bytes due)") from None
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            raise _ConnectionClosed() from None

    async def _read_frame(self, reader: asyncio.StreamReader) -> bytes:
        """One frame body; raises the typed internal framing states, or
        :class:`~repro.errors.FrameTooLarge` once an oversized body is
        drained (framing intact — answer and keep serving)."""
        # net.read faults: "disconnect" surfaces the exact exception a
        # TCP reset would; "delay" models a slow network; "raise" an
        # unexpected transport bug.
        fault_point("net.read")
        header = await self._read_exactly(reader, HEADER.size, None)
        (length,) = HEADER.unpack(header)
        if length > self.config.max_frame_bytes:
            # Drain the declared body in bounded chunks so framing
            # stays intact and the connection remains serviceable; a
            # peer that cannot even deliver what it declared stalls
            # into the read timeout and is closed.
            remaining = length
            while remaining:
                chunk = await self._read_exactly(
                    reader,
                    min(remaining, 1 << 16),
                    self.config.read_timeout,
                )
                remaining -= len(chunk)
            raise FrameTooLarge(length, self.config.max_frame_bytes)
        return await self._read_exactly(reader, length, self.config.read_timeout)

    async def _send(self, conn: _Conn, body: dict) -> None:
        """Write one response frame (multiplex-safe, fault-instrumented).

        A ``net.write`` drop verdict blackholes the frame (the peer's
        read times out — their problem to handle, and the bundled
        client does).  Write failures mark the connection dead and
        cancel its in-flight work.
        """
        if not conn.alive:
            return
        try:
            data = encode_frame(body, self.config.max_frame_bytes)
        except ReproError as exc:
            # An oversized *response* (e.g. include_data on a huge
            # result) degrades to a typed error frame, not a dead
            # connection.
            data = encode_frame(
                error_frame_for(body.get("id"), exc), self.config.max_frame_bytes
            )
        if fault_point("net.write", body) == "drop":
            return
        try:
            async with conn.write_lock:
                conn.writer.write(data)
                await asyncio.wait_for(
                    conn.writer.drain(), self.config.write_timeout
                )
        except TimeoutError:
            await self._on_conn_dead(conn)
            raise _SlowPeer("write timed out") from None
        except (ConnectionError, OSError):
            await self._on_conn_dead(conn)
            raise _ConnectionClosed() from None

    async def _on_conn_dead(self, conn: _Conn) -> None:
        if conn.alive:
            self._stats.cancelled_by_disconnect += conn.abort_inflight()
        await self._close_conn(conn)

    # ------------------------------------------------------------------
    # Connection handler
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Conn(writer)
        try:
            verdict = fault_point("net.accept")
        except (FaultInjected, ConnectionError):
            verdict = "drop"
        if verdict == "drop" or self._draining:
            with contextlib.suppress(Exception):
                writer.close()
            return
        self._conns.add(conn)
        self._stats.connections_total += 1
        try:
            while conn.alive:
                try:
                    msg = decode_body(await self._read_frame(reader))
                except ProtocolError as exc:
                    # Oversized (already drained) or malformed: framing
                    # is intact, so answer and keep serving.
                    self._stats.protocol_errors += 1
                    await self._send(conn, error_frame_for(None, exc))
                    continue
                except (_ConnectionClosed, _SlowPeer, FaultInjected, OSError):
                    # Peer gone, stalled, or an injected transport bug on
                    # the read path: the connection is in an unknown
                    # state — close it (the client sees ConnectionLost).
                    break
                await self._dispatch(conn, msg)
        except (_ConnectionClosed, _SlowPeer):
            pass
        finally:
            await self._on_conn_dead(conn)

    async def _dispatch(self, conn: _Conn, msg: dict) -> None:
        kind = msg["type"]
        rid = msg.get("id")
        if kind in ("QUERY", "INGEST"):
            # Admission: a job runs as a task in ``_inflight``, which
            # drain waits on.
            if self._draining:
                await self._send(
                    conn,
                    error_frame_for(rid, ServiceUnavailable("server is draining")),
                )
                return
            if kind == "QUERY":
                self._stats.queries_total += 1
                job = self._serve_query(conn, msg)
            else:
                self._stats.ingests_total += 1
                job = self._reply(
                    rid, self._ingest(msg), partial(self._send, conn)
                )
            task = asyncio.ensure_future(job)
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)
            return
        if kind == "PING":
            body = pong_response(
                rid, ready=not self._draining, draining=self._draining
            )
        elif kind == "STATS":
            body = self._stats_body(rid)
        elif kind == "METRICS" and self.collector is not None:
            body = metrics_response(
                rid,
                text=self.collector.prometheus(),
                varz=self.collector.varz(),
            )
        elif kind == "METRICS":
            body = error_frame_for(
                rid,
                ServiceUnavailable(
                    "server was started without a metrics collector"
                ),
            )
        else:
            self._stats.protocol_errors += 1
            body = error_frame_for(
                rid, ProtocolError(f"unknown request type {kind!r}")
            )
        await self._send(conn, body)

    async def _reply(
        self,
        rid,
        work: Awaitable[dict],
        answer: Callable[[dict], Awaitable[None]],
    ) -> None:
        """The failure ladder of every job: ``answer`` the body ``work``
        returns, or the typed frame of what it raised (``internal``
        for an untyped server bug).  A peer that is gone gets nothing;
        :meth:`_on_conn_dead` already cancelled its tokens."""
        try:
            await answer(await work)
        except (_ConnectionClosed, _SlowPeer):
            pass
        except Exception as exc:
            with contextlib.suppress(_ConnectionClosed, _SlowPeer):
                await answer(error_frame_for(rid, exc))

    # ------------------------------------------------------------------
    # QUERY handling
    # ------------------------------------------------------------------
    def _clamp_timeout(self, msg: dict) -> float | None:
        """The effective deadline (seconds) for one request."""
        wish = msg.get("timeout_ms", None)
        if wish is None:
            wish = self.config.default_timeout_ms
        elif not isinstance(wish, (int, float)) or isinstance(wish, bool) \
                or wish <= 0:
            raise ProtocolError(
                f"timeout_ms must be a positive number, got {wish!r}"
            )
        if wish is None:
            return None
        return min(float(wish), self.config.max_timeout_ms) / 1000.0

    def _request_config(self, msg: dict) -> RunConfig | None:
        """Per-request strategy/materialize overrides on the engine's
        default config (``None`` = serve with the default as-is)."""
        given = {
            key: msg[key]
            for key in ("strategy", "materialize")
            if msg.get(key) is not None
        }
        if not given:
            return None
        # RunConfig rejects an unknown strategy or mode with PlanError.
        return replace(self.engine.default_config, **given)

    def _resolve_spec(self, msg: dict) -> QuerySpec:
        name = msg.get("query")
        if not isinstance(name, str):
            raise ProtocolError("QUERY needs a string 'query' field")
        spec = self.specs.get(name)
        if spec is None:
            raise PlanError(
                f"unknown query {name!r}; registered: "
                f"{', '.join(sorted(self.specs))}"
            )
        return spec

    async def _await_job(self, future):
        """Await an engine future without cancellation back-propagation.

        ``asyncio.wrap_future`` would try to cancel the engine's
        future when the awaiting task is cancelled — racing the pool's
        ``set_result`` into ``InvalidStateError``.  This bridge only
        *observes*: disconnects abort queries via their CancelToken
        (the cooperative path the engine guarantees resolves), never
        by cancelling the future object.
        """
        loop = asyncio.get_running_loop()
        done = loop.create_future()

        def _transfer(f) -> None:
            exc = f.exception()

            def _set() -> None:
                if done.cancelled():
                    return
                if exc is not None:
                    done.set_exception(exc)
                else:
                    done.set_result(f.result())

            with contextlib.suppress(RuntimeError):  # loop already closed
                loop.call_soon_threadsafe(_set)

        future.add_done_callback(_transfer)
        return await done

    @staticmethod
    def _request_trace_id(msg: dict) -> str:
        """The request's trace id: the client's (validated) or a fresh
        mint, so every RESULT/ERROR/RETRY frame carries one."""
        wish = msg.get("trace_id")
        if wish is None:
            return mint_trace_id()
        if not isinstance(wish, str) or not wish or len(wish) > 128:
            raise ProtocolError(
                "trace_id must be a non-empty string of at most 128 chars"
            )
        return wish

    async def _serve_query(self, conn: _Conn, msg: dict) -> None:
        rid = msg.get("id")
        token = CancelToken()
        trace_id = ""
        req_span = mint_span_id() if self.trace_sink is not None else None
        started = time.time()
        # What the request span reports; "disconnect" survives only
        # when the peer vanished before any response could be sent.
        outcome = "disconnect"

        async def answer(body: dict) -> None:
            nonlocal outcome
            if trace_id:
                body.setdefault("trace_id", trace_id)
            outcome = body.get("code") or "ok"
            await self._send(conn, body)

        async def work() -> dict:
            nonlocal trace_id
            trace_id = self._request_trace_id(msg)
            spec = self._resolve_spec(msg)
            config = self._request_config(msg)
            timeout_s = self._clamp_timeout(msg)
            conn.tokens.add(token)
            try:
                future = self.engine.submit(
                    spec,
                    config,
                    timeout=timeout_s,
                    token=token,
                    trace_id=trace_id,
                    parent_span=req_span,
                )
            except RuntimeError as exc:
                # Engine closed under us (drain race): typed answer.
                raise ServiceUnavailable(str(exc)) from None
            return self._result_body(rid, msg, await self._await_job(future))

        try:
            await self._reply(rid, work(), answer)
        finally:
            conn.tokens.discard(token)
            if req_span is not None and self.trace_sink is not None:
                self.trace_sink.emit([
                    Span(
                        trace_id=trace_id or mint_trace_id(),
                        span_id=req_span,
                        parent_id=None,
                        name="request",
                        start_unix=started,
                        seconds=time.time() - started,
                        attrs={
                            "rid": rid,
                            "query": msg.get("query"),
                            "outcome": outcome,
                        },
                    )
                ])

    # ------------------------------------------------------------------
    # INGEST handling
    # ------------------------------------------------------------------
    async def _ingest(self, msg: dict) -> dict:
        """One ``INGEST`` frame's work: decode, commit, the reply body.

        The decode and the commit run as one job on the default
        executor, never on the event loop: decoding a batch costs
        more than committing it.  Decoding and schema validation happen
        *before* anything is staged, so a malformed payload is answered
        ``ERROR code=bad_request`` with the catalog untouched.
        """
        tables = msg.get("tables")
        if not isinstance(tables, dict) or not tables:
            raise ProtocolError("INGEST needs a non-empty 'tables' object")
        loop = asyncio.get_running_loop()
        rows, versions = await loop.run_in_executor(None, self._commit, tables)
        return ingested_response(msg.get("id"), versions=versions, rows=rows)

    def _commit(self, tables: dict) -> tuple[int, dict[str, str]]:
        """Decode an ``INGEST``'s tables against the catalog (an unknown
        name raises :class:`~repro.errors.SchemaError`) and commit them:
        the rows appended and the committed versions."""
        deltas = {
            name: decode_wire_table(name, self.engine.catalog.get(name), payload)
            for name, payload in tables.items()
        }
        return sum(d.num_rows for d in deltas.values()), self.engine.ingest(deltas)

    def _result_body(self, rid, msg: dict, result) -> dict:
        from .workload import result_digest

        stats = result.stats
        table = result.table
        body_stats = {
            "strategy": stats.strategy,
            "outcome": stats.outcome,
            "seconds": stats.total_seconds,
            "filter_cache_hits": stats.total("filter_cache_hits"),
            "filter_cache_misses": stats.total("filter_cache_misses"),
            "filters_degraded": stats.filters_degraded,
        }
        data = None
        truncated = False
        columns = None
        if msg.get("include_data"):
            cap = self.config.max_result_rows
            columns = list(table.column_names)
            head = table.head(cap) if table.num_rows > cap else table
            truncated = table.num_rows > cap
            data = [
                [_json_value(v) for v in row] for row in head.to_rows()
            ]
        return result_response(
            rid,
            digest=result_digest(table),
            rows=table.num_rows,
            stats=body_stats,
            columns=columns,
            data=data,
            data_truncated=truncated,
        )

    # ------------------------------------------------------------------
    # STATS
    # ------------------------------------------------------------------
    def _stats_body(self, rid) -> dict:
        cache = self.engine.cache_stats()
        # One atomic snapshot: counters and the pending gauge are taken
        # under a single lock acquisition, so a scrape racing query
        # completion never sees a query counted both done and pending.
        snap = self.engine.snapshot()
        return {
            "type": "STATS",
            "id": rid,
            "protocol": PROTOCOL_VERSION,
            "engine": asdict(snap.stats),
            # benchmarks/perf/serving.py (_stats_delta) still reads the
            # counters of the deleted cache delta extension: they stay 0.
            "cache": None if cache is None else {
                **asdict(cache), "extensions": 0, "extension_rebuilds": 0,
            },
            "server": {
                **asdict(self.stats()),
                "pending_jobs": snap.pending,
                "queries": sorted(self.specs),
            },
            "meta": self.meta,
        }


# ----------------------------------------------------------------------
# Default registry
# ----------------------------------------------------------------------
def build_default_registry(sf: float, seed: int = 0):
    """The stock serving universe: merged TPC-H+SSB catalog and every
    registered query (TPC-H 1–22 + cyclic extras, all SSB flights with
    ``ssb.``-prefixed tables).  Returns ``(catalog, specs)``."""
    from ..ssb import ALL_SSB_QUERY_IDS, get_ssb_query
    from ..tpch.queries import CYCLIC_QUERY_IDS, get_query
    from .workload import SSB_PREFIX, build_catalog, prefix_tables

    catalog = build_catalog(sf=sf, seed=seed)
    specs: dict[str, QuerySpec] = {}
    for qid in list(range(1, 23)) + list(CYCLIC_QUERY_IDS):
        spec = get_query(qid, sf=sf)
        specs[spec.name] = spec
    for qid in ALL_SSB_QUERY_IDS:
        spec = prefix_tables(get_ssb_query(qid), SSB_PREFIX)
        specs[spec.name] = spec
    return catalog, specs


# ----------------------------------------------------------------------
# The owner (a background thread) and the blocking CLI entrypoint on it
# ----------------------------------------------------------------------
class ServerThread:
    """Run a :class:`QueryServer` on a private event loop in a
    background thread — the one owner of a server: :func:`run_server`,
    the tests, the network-chaos sweep and the benchmark's server
    process all serve through it.

    The thread owns the loop, not the engine; :meth:`close` drains the
    server (every pending request resolves) and stops the loop, then
    the caller shuts the engine down.

    ``metrics_port`` (0 = ephemeral) additionally boots the
    :class:`~repro.obs.httpd.MetricsServer` sidecar on the same loop;
    a collector is built from the engine's registry when none is
    given.  ``/healthz`` flips to 503 the moment :meth:`drain` begins.
    """

    def __init__(
        self,
        engine: Engine,
        specs: Mapping[str, QuerySpec],
        *,
        config: ServerConfig | None = None,
        meta: dict | None = None,
        collector: ObsCollector | None = None,
        trace_sink: TraceSink | None = None,
        metrics_port: int | None = None,
        metrics_host: str = "127.0.0.1",
    ) -> None:
        if collector is None and metrics_port is not None:
            collector = ObsCollector(
                engine.registry or MetricsRegistry(), engine=engine
            )
        self.server = QueryServer(
            engine,
            specs,
            config=config,
            meta=meta,
            collector=collector,
            trace_sink=trace_sink,
        )
        if collector is not None and collector.server is None:
            collector.server = self.server
        self.metrics: MetricsServer | None = None
        if metrics_port is not None:
            self.metrics = MetricsServer(
                collector,
                host=metrics_host,
                port=metrics_port,
                health=lambda: (
                    (False, "draining")
                    if self.server.draining
                    else (True, "ok")
                ),
            )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._boot_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )

    def start(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._boot_error is not None:
            raise self._boot_error
        if not self._ready.is_set():
            raise RuntimeError("server failed to start within 30s")
        return self

    @property
    def port(self) -> int:
        assert self.server.port is not None, "server not started"
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.config.host

    @property
    def metrics_port(self) -> int | None:
        """The sidecar's bound port (``None`` when not enabled)."""
        return None if self.metrics is None else self.metrics.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.server.start())
            if self.metrics is not None:
                loop.run_until_complete(self.metrics.start())
        except BaseException as exc:  # bind failure etc.
            self._boot_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    def drain(self, grace: float | None = None, timeout: float = 60.0) -> None:
        """Graceful drain from any thread (blocks until resolved)."""
        assert self._loop is not None
        fut = asyncio.run_coroutine_threadsafe(
            self.server.drain(grace), self._loop
        )
        fut.result(timeout=timeout)

    def close(self) -> None:
        """Drain, stop the loop, join the thread (idempotent)."""
        if self._loop is None or not self._thread.is_alive():
            return
        with contextlib.suppress(Exception):
            self.drain()
        if self.metrics is not None:
            with contextlib.suppress(Exception):
                asyncio.run_coroutine_threadsafe(
                    self.metrics.aclose(), self._loop
                ).result(timeout=10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


def run_server(
    *,
    sf: float = 0.01,
    seed: int = 0,
    workers: int = 4,
    max_pending: int = 256,
    config: ServerConfig | None = None,
    metrics_port: int | None = None,
    slow_query_ms: float | None = None,
    slow_query_log: str | None = None,
    trace_out: str | None = None,
) -> int:
    """Blocking CLI entrypoint: build the stock registry, serve on a
    :class:`ServerThread` until SIGTERM/SIGINT, drain gracefully, shut
    the engine down.

    The observability surfaces are always live on the wire (``METRICS``
    frames work against any served port); ``metrics_port`` additionally
    exposes them over HTTP for ``curl``/Prometheus.  ``slow_query_ms``
    arms the slow-query log (JSON lines to ``slow_query_log`` or
    stderr) and ``trace_out`` streams per-query span trees.

    Returns the process exit code (0 on a clean drain).
    """
    import signal
    import sys

    catalog, specs = build_default_registry(sf, seed)
    registry = MetricsRegistry()
    slow_log = None
    if slow_query_ms is not None:
        slow_log = SlowQueryLog(
            slow_query_log if slow_query_log else sys.stderr,
            threshold_s=float(slow_query_ms) / 1000.0,
        )
    trace_sink = TraceSink(trace_out) if trace_out else None
    engine = Engine(
        catalog,
        workers=workers,
        max_pending=max_pending,
        registry=registry,
        slow_log=slow_log,
        trace_sink=trace_sink,
    )
    config = config or ServerConfig()
    stop = threading.Event()
    previous = {
        sig: signal.signal(sig, lambda *_: stop.set())
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        with ServerThread(
            engine,
            specs,
            config=config,
            meta={"sf": sf, "seed": seed},
            collector=ObsCollector(registry, engine=engine),
            trace_sink=trace_sink,
            metrics_port=metrics_port,
            metrics_host=config.host,
        ) as owner:
            print(
                f"serving {len(specs)} queries (sf={sf}) on "
                f"{owner.host}:{owner.port} "
                f"[workers={workers}, max_pending={max_pending}]",
                flush=True,
            )
            if owner.metrics is not None:
                print(
                    f"metrics on http://{owner.metrics.host}:"
                    f"{owner.metrics_port}/metrics (/healthz, /varz)",
                    flush=True,
                )
            stop.wait()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        engine.shutdown(wait=True, cancel=True)
        if slow_log is not None:
            slow_log.close()
        if trace_sink is not None:
            trace_sink.close()
    print("drained cleanly", flush=True)
    return 0
