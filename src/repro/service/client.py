"""Resilient blocking client for the network serving layer.

:class:`ReproClient` speaks the length-prefixed JSON protocol of
:mod:`.protocol` over a plain stdlib socket.  Its robustness contract
mirrors the server's:

* every failure is **typed** — ``ERROR`` frames are reconstructed into
  the same exception classes the in-process engine raises
  (``QueryTimeout``, ``QueryCancelled``, ``MemoryBudgetExceeded``, …),
  transport failures (reset, EOF, an I/O timeout waiting for a
  response the network swallowed) raise
  :class:`~repro.errors.ConnectionLost`;
* ``RETRY`` frames (admission control) are honoured by
  :meth:`ReproClient.query` with the seeded-jitter exponential backoff
  of :meth:`RetryPolicy.run`, waiting at least the server's
  ``retry_after`` hint between attempts;
* the client never hangs: every socket operation is bounded by
  ``io_timeout``.

One client drives one connection and one request at a time; open one
client per concurrent caller (the network chaos sweep and the
benchmark's serving workloads do exactly that).
Responses are nevertheless matched by request id, so a server that
interleaves responses with other traffic on the connection is handled
correctly.
"""

from __future__ import annotations

import itertools
import random
import socket
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import TypeVar

from ..errors import ConnectionLost, EngineSaturated, ProtocolError
from .protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    exception_for_response,
    ingest_request,
    metrics_request,
    ping_request,
    query_request,
    recv_frame,
    send_frame,
    stats_request,
)

T = TypeVar("T")

#: Backoff growth per attempt, the cap on one pre-hint wait (seconds)
#: and the half-width of the uniform jitter around each wait.
BACKOFF_MULTIPLIER = 2.0
MAX_BACKOFF = 2.0
JITTER = 0.5


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side jittered exponential backoff for admission rejections.

    ``attempts`` bounds total tries; delay ``k`` is ``base_delay *
    BACKOFF_MULTIPLIER**k`` capped at ``MAX_BACKOFF``, scaled by a
    uniform jitter in ``[1-JITTER, 1+JITTER]`` drawn from a
    ``seed``-able RNG (so tests are deterministic), and floored by the
    server's ``retry_after`` hint when the error carries one.  Only
    :class:`~repro.errors.EngineSaturated` is retried; timeouts and
    budget errors would fail identically on a plain retry.
    """

    attempts: int = 4
    base_delay: float = 0.05
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")

    def delays(self) -> list[float]:
        """The deterministic pre-hint backoff schedule (attempts-1 waits)."""
        rng = random.Random(self.seed)
        out = []
        delay = self.base_delay
        for _ in range(self.attempts - 1):
            scale = 1.0 + JITTER * (2.0 * rng.random() - 1.0)
            out.append(min(delay, MAX_BACKOFF) * scale)
            delay *= BACKOFF_MULTIPLIER
        return out

    def run(self, call: Callable[[], T], sleep=time.sleep) -> T:
        """``call()`` with jittered exponential backoff.

        Retries only :class:`~repro.errors.EngineSaturated`, waiting the
        larger of the seeded-jitter schedule and the error's
        ``retry_after`` hint between attempts; after ``attempts`` tries
        the last typed error is re-raised.  ``sleep`` is injectable for
        deterministic tests.
        """
        for delay in self.delays():
            try:
                return call()
            except EngineSaturated as exc:
                sleep(max(delay, exc.retry_after))
        return call()


class ReproClient:
    """A blocking protocol client for one server connection.

    Parameters
    ----------
    host, port:
        The server address.
    connect_timeout:
        Bound on establishing the TCP connection.
    io_timeout:
        Bound on every subsequent send/receive.  A response that does
        not arrive within it raises
        :class:`~repro.errors.ConnectionLost` — the typed outcome for
        a blackholed response (the connection is closed; re-issue on a
        fresh client if desired).
    max_frame_bytes:
        Frame-size limit applied in both directions.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7531,
        *,
        connect_timeout: float = 5.0,
        io_timeout: float = 60.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.host = host
        self.port = port
        self.io_timeout = io_timeout
        self.max_frame_bytes = max_frame_bytes
        self._ids = itertools.count(1)
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=connect_timeout
            )
        except OSError as exc:
            raise ConnectionLost(
                f"cannot connect to {host}:{port}: {exc}"
            ) from None
        self._sock.settimeout(io_timeout)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the connection (idempotent)."""
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def request(self, body: dict) -> dict:
        """One request/response exchange, matched by id.

        Frames answering *other* ids (possible when a caller pipelines
        requests manually) are skipped; a response without our id that
        carries an error for the connection as a whole (the server
        answers unattributable protocol errors with ``id=null``) is
        raised directly.
        """
        if self._sock is None:
            raise ConnectionLost("client is closed")
        rid = body.get("id")
        send_frame(self._sock, body, self.max_frame_bytes)
        deadline = time.monotonic() + self.io_timeout
        while True:
            if time.monotonic() > deadline:
                self.close()
                raise ConnectionLost(
                    f"no response for request {rid!r} within "
                    f"{self.io_timeout}s"
                )
            try:
                frame = recv_frame(self._sock, self.max_frame_bytes)
            except (ConnectionLost, ProtocolError):
                self.close()
                raise
            got = frame.get("id")
            if got == rid:
                return frame
            if got is None and frame.get("type") == "ERROR":
                # Connection-scoped error (malformed/oversized frame
                # we sent): ours to raise even without an id echo.
                raise exception_for_response(frame)
            # A frame for someone else (pipelined caller): not ours.
            continue

    def _exchange(self, body: dict, expect: str) -> dict:
        """:meth:`request`, typed: the response if it is an ``expect``
        frame; an ``ERROR``/``RETRY`` frame raised as its exception;
        anything else a :class:`~repro.errors.ProtocolError`."""
        frame = self.request(body)
        kind = frame.get("type")
        if kind == expect:
            return frame
        if kind in ("ERROR", "RETRY"):
            raise exception_for_response(frame)
        raise ProtocolError(f"expected {expect}, got {kind!r}")

    # ------------------------------------------------------------------
    def ping(self) -> dict:
        """Liveness/readiness probe: the raw ``PONG`` body."""
        return self._exchange(ping_request(next(self._ids)), "PONG")

    def stats(self) -> dict:
        """Engine/cache/server snapshots: the raw ``STATS`` body."""
        return self._exchange(stats_request(next(self._ids)), "STATS")

    def metrics(self) -> dict:
        """The server's metric families: the raw ``METRICS`` body
        (``text`` = Prometheus exposition, ``varz`` = JSON form).

        A server started without a collector answers
        ``ERROR code=unavailable``, raised here as
        :class:`~repro.errors.ServiceUnavailable`.
        """
        return self._exchange(metrics_request(next(self._ids)), "METRICS")

    def ingest(self, tables: dict[str, dict[str, list]]) -> dict:
        """Append delta rows transactionally: the ``INGESTED`` body.

        ``tables`` maps catalog table name → column name → list of
        values in the wire forms of
        :func:`~repro.service.protocol.ingest_request`.  All tables
        commit in one atomic catalog transaction; on any typed failure
        (schema mismatch, injected ingest fault, draining server) the
        matching exception is raised here and the server's catalog is
        guaranteed untouched.
        """
        return self._exchange(
            ingest_request(next(self._ids), tables), "INGESTED"
        )

    def query_once(
        self,
        query: str,
        *,
        strategy: str | None = None,
        materialize: str | None = None,
        timeout_ms: float | None = None,
        include_data: bool = False,
        trace_id: str | None = None,
    ) -> dict:
        """One query attempt: the ``RESULT`` body, or a typed raise.

        ``RETRY`` surfaces as :class:`~repro.errors.EngineSaturated`
        (carrying the server's ``retry_after``); use :meth:`query` for
        automatic backoff.  ``trace_id`` travels to the server (which
        otherwise mints one) and is echoed on the response.
        """
        request = query_request(
            next(self._ids),
            query,
            strategy=strategy,
            materialize=materialize,
            timeout_ms=timeout_ms,
            include_data=include_data,
            trace_id=trace_id,
        )
        return self._exchange(request, "RESULT")

    def query(
        self,
        query: str,
        *,
        strategy: str | None = None,
        materialize: str | None = None,
        timeout_ms: float | None = None,
        include_data: bool = False,
        trace_id: str | None = None,
        policy: RetryPolicy | None = None,
        sleep=time.sleep,
    ) -> dict:
        """:meth:`query_once` under ``policy``'s saturation backoff
        (:meth:`RetryPolicy.run`; by default admission rejections
        relayed as ``RETRY`` frames are retried).  ``sleep`` is
        injectable for deterministic tests.
        """
        return (policy or RetryPolicy()).run(
            lambda: self.query_once(
                query,
                strategy=strategy,
                materialize=materialize,
                timeout_ms=timeout_ms,
                include_data=include_data,
                trace_id=trace_id,
            ),
            sleep=sleep,
        )
