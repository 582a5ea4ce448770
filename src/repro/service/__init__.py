"""Concurrent query service: the Engine and its network front end.

The serving layer grown on top of the single-query executor:

* :mod:`.engine` — :class:`Engine` (one shared catalog + filter cache
  + worker pool; thread-safe execution and catalog mutation);
* :mod:`.workload` — the merged TPC-H/SSB catalog, the spec rewrites
  the serving benchmark issues (SSB table prefixes, date-shifted
  variants) and the result digest;
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

from .client import ReproClient, RetryPolicy
from .engine import Engine, EngineStats
from .server import (
    QueryServer,
    ServerConfig,
    ServerThread,
    build_default_registry,
    run_server,
)
from .workload import build_catalog, vary_spec

__all__ = [
    "Engine",
    "EngineStats",
    "QueryServer",
    "ReproClient",
    "RetryPolicy",
    "ServerConfig",
    "ServerThread",
    "build_catalog",
    "build_default_registry",
    "run_server",
    "vary_spec",
]
