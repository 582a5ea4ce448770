"""Concurrent query service: Engine serving + workload replay.

The serving layer grown on top of the single-query executor:

* :mod:`.engine` — :class:`Engine` (one shared catalog + filter cache
  + worker pool; thread-safe execution and catalog mutation) and
  :class:`RetryPolicy` (seeded-jitter backoff, :meth:`RetryPolicy.run`);
* :mod:`.workload` — mixed TPC-H/SSB stream construction (repeated,
  shuffled, parameter-varied), in-order replay and the result digest;
* :mod:`.protocol` — the length-prefixed JSON wire protocol (frame
  codecs, request/response constructors, error-code ↔ exception
  mapping);
* :mod:`.server` — the fault-tolerant :mod:`asyncio` network server
  (:class:`QueryServer`, its one owner :class:`ServerThread`, and the
  blocking :func:`run_server` CLI entrypoint over it);
* :mod:`.client` — the resilient blocking :class:`ReproClient`
  (typed errors, saturation backoff via :class:`RetryPolicy`).
"""

from __future__ import annotations

from .client import ReproClient
from .engine import Engine, EngineStats, RetryPolicy
from .server import (
    QueryServer,
    ServerConfig,
    ServerThread,
    build_default_registry,
    run_server,
)
from .workload import (
    ReplayResult,
    build_catalog,
    build_stream,
    replay,
    vary_spec,
)

__all__ = [
    "Engine",
    "EngineStats",
    "QueryServer",
    "ReplayResult",
    "ReproClient",
    "RetryPolicy",
    "ServerConfig",
    "ServerThread",
    "build_catalog",
    "build_default_registry",
    "build_stream",
    "replay",
    "run_server",
    "vary_spec",
]
