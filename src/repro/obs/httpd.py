"""The metrics HTTP sidecar: ``/metrics``, ``/healthz``, ``/varz``.

A deliberately tiny asyncio HTTP/1.0-style responder that shares the
query server's event loop (``--metrics-port`` on ``repro serve``).  It
speaks just enough HTTP for ``curl`` and a Prometheus scraper — GET
and HEAD, ``Connection: close``, correct Content-Length — and nothing
more: no keep-alive, no chunking, no routing table to misconfigure.

* ``GET /metrics`` — Prometheus text exposition v0.0.4 of the
  collector's registry (a fresh scrape per request).
* ``GET /healthz`` — ``200 ok`` while serving; ``503 draining`` once
  the query server starts its graceful drain, so load balancers stop
  routing to an instance that is about to go away *before* its TCP
  listener disappears.
* ``GET /varz`` — the same registry as pretty-printed JSON, for
  humans and scripts without a Prometheus parser.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from typing import Callable

from .adapters import ObsCollector
from .export import CONTENT_TYPE

__all__ = ["MetricsServer"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    503: "Service Unavailable",
}

#: A peer gets this long to deliver its request head before the
#: connection is dropped — the sidecar must never hold sockets open
#: for stalled scrapers.
_REQUEST_TIMEOUT = 5.0


class MetricsServer:
    """Serve one :class:`~repro.obs.adapters.ObsCollector` over HTTP.

    ``health`` reports liveness: a callable returning ``(ok, detail)``
    — the query server wires ``(not draining, ...)`` in so ``/healthz``
    flips to 503 the moment a drain begins.  ``port=0`` binds
    ephemerally; read :attr:`port` back after :meth:`start`.
    """

    def __init__(
        self,
        collector: ObsCollector,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        health: Callable[[], tuple[bool, str]] | None = None,
    ) -> None:
        self.collector = collector
        self.host = host
        self._want_port = port
        self._health = health or (lambda: (True, "ok"))
        self._server: asyncio.Server | None = None
        self.port: int | None = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self._want_port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()

    # ------------------------------------------------------------------
    def _respond(self, path: str) -> tuple[int, str, str]:
        """``(status, content_type, body)`` for one GET/HEAD target."""
        if path == "/metrics":
            return 200, CONTENT_TYPE, self.collector.prometheus()
        if path == "/healthz":
            ok, detail = self._health()
            return (200 if ok else 503), "text/plain; charset=utf-8", (
                detail + "\n"
            )
        if path == "/varz":
            body = json.dumps(self.collector.varz(), indent=2, sort_keys=True)
            return 200, "application/json; charset=utf-8", body + "\n"
        return 404, "text/plain; charset=utf-8", f"no route {path}\n"

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        status, content_type, body = 400, "text/plain; charset=utf-8", "bad request\n"
        send_body = True
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), _REQUEST_TIMEOUT
            )
            parts = request_line.decode("latin-1", "replace").split()
            # Drain the header block; the sidecar ignores every header.
            while True:
                line = await asyncio.wait_for(
                    reader.readline(), _REQUEST_TIMEOUT
                )
                if line in (b"\r\n", b"\n", b""):
                    break
            if len(parts) >= 2:
                method, target = parts[0], parts[1]
                if method in ("GET", "HEAD"):
                    path = target.split("?", 1)[0]
                    status, content_type, body = self._respond(path)
                    send_body = method == "GET"
                else:
                    status, body = 405, "only GET/HEAD\n"
            payload = body.encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode("latin-1")
            writer.write(head + (payload if send_body else b""))
            await asyncio.wait_for(writer.drain(), _REQUEST_TIMEOUT)
        except (TimeoutError, ConnectionError, OSError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()
