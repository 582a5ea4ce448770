"""Span recorder that instruments the program from outside.

The benchmark may not edit ``src/``, so per-layer numbers come from
wrappers this module installs around the layers' public functions and
methods at run time.  A wrapper records one span per call — name,
start, end, the span that caused it, and the request it belongs to —
plus counts taken at the same boundary (keys hashed, rows probed, bytes
encoded).  Spans stay in memory; the caller dumps them when the run
ends.

The current span and request id travel in a :mod:`contextvars`
variable, so nesting works across ``asyncio`` tasks (a task copies the
context it was created in) as well as within a thread.  Work handed to
another thread does not inherit the context; a target's ``request_in``
hook re-attaches the request id there (see ``layers.py`` for the
engine's submit → run hand-off).

A layer's *self time* is its span's duration minus the part of that
interval its direct children cover (:func:`self_times`).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

#: (current span id, current request id) of the running context.
_CURRENT: contextvars.ContextVar[tuple[int | None, str | None]] = (
    contextvars.ContextVar("perf_trace_current", default=(None, None))
)


class Span(NamedTuple):
    """One recorded call."""

    id: int
    parent: int | None
    name: str
    request: str | None
    start: float
    end: float
    counts: dict[str, float] | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    ``owner`` is ``"package.module"`` for a module-level function or
    ``"package.module:Class"`` for a method.
    ``count(args, kwargs, result)`` returns the counts to store on the
    span, taken only when the call returns normally.  Two hooks name the
    request a call belongs to when the context cannot: ``request_in(args,
    kwargs)`` is consulted when the running context carries no request
    (work picked up by a pool thread), and ``request_out(result)`` tags
    the span and the rest of the caller's context from the call's result
    (a decoded frame carries the id of the request it starts).
    """

    owner: str
    attr: str
    name: str
    count: Callable[[tuple, dict, object], dict[str, float]] | None = None
    request_in: Callable[[tuple, dict], str | None] | None = None
    request_out: Callable[[object], str | None] | None = None


def set_request(request: str | None) -> None:
    """Tag the rest of the running context with a request id: spans
    opened later in this context, and in tasks created from it, carry
    the id."""
    parent, _ = _CURRENT.get()
    _CURRENT.set((parent, request))


class Tracer:
    """Records spans and patches wrap targets in and out."""

    def __init__(self, prefix: str = "repro") -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._prefix = prefix
        # (namespace object, attribute, original value), in patch order.
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, target: Target) -> Callable:
        """A wrapper around ``fn`` that records one span per call."""
        spans = self.spans
        ids = self._ids
        name, count = target.name, target.count
        request_in, request_out = target.request_in, target.request_out

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, request = _CURRENT.get()
            if request is None and request_in is not None:
                request = request_in(args, kwargs)
            sid = next(ids)
            token = _CURRENT.set((sid, request))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                _CURRENT.reset(token)
                spans.append(Span(sid, parent, name, request, start, end, None))
                raise
            end = time.perf_counter()
            _CURRENT.reset(token)
            counts = count(args, kwargs, result) if count is not None else None
            if request_out is not None:
                request = request_out(result)
                set_request(request)
            # list.append is atomic under the interpreter lock, so worker
            # threads record without further locking.
            spans.append(Span(sid, parent, name, request, start, end, counts))
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Installing
    # ------------------------------------------------------------------
    def install(self, targets: Iterable[Target]) -> None:
        """Patch every target in every namespace that bound it.

        ``from x import f`` copies the function object into the
        importing module, so a module-level target is replaced in each
        loaded ``<prefix>.*`` module whose globals hold the original.
        Methods are replaced on the class, which every importer shares.
        """
        for target in targets:
            module_name, _, class_name = target.owner.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                cls = getattr(module, class_name)
                original = cls.__dict__[target.attr]
                self._patch(cls, target.attr, original, self.wrap(original, target))
                continue
            original = getattr(module, target.attr)
            wrapper = self.wrap(original, target)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (
                    name == self._prefix or name.startswith(self._prefix + ".")
                ):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, namespace: object, attr: str, original, wrapper) -> None:
        self._patched.append((namespace, attr, original))
        setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def drain(self) -> list[Span]:
        """Hand over the recorded spans and start an empty list."""
        spans = list(self.spans)
        del self.spans[: len(spans)]
        return spans


# ----------------------------------------------------------------------
# Arithmetic over recorded spans
# ----------------------------------------------------------------------
def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id → duration minus what its direct children cover.

    Children that overlap each other (parallel work) are counted once,
    and a child running outside its parent's interval (a task started
    by a call that already returned) takes nothing from the parent.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: s.seconds - _covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def outermost_seconds(spans: Iterable[Span], names: set[str]) -> float:
    """Total duration of spans named in ``names`` that have no ancestor
    in ``names`` — a layer's busy time without double counting nested
    calls inside the same layer."""
    spans = list(spans)
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        parent = by_id.get(s.parent) if s.parent is not None else None
        while parent is not None and parent.name not in names:
            parent = by_id.get(parent.parent) if parent.parent is not None else None
        if parent is None:
            total += s.seconds
    return total


def sum_counts(spans: Iterable[Span]) -> dict[str, float]:
    """Every count key summed over all spans."""
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.counts:
            for key, value in s.counts.items():
                totals[key] += value
    return dict(totals)


def span_table(spans: Iterable[Span]) -> list[dict]:
    """Per span name: calls, total seconds and self seconds, by
    descending self time."""
    spans = list(spans)
    selfs = self_times(spans)
    rows: dict[str, dict] = {}
    for s in spans:
        row = rows.setdefault(
            s.name, {"name": s.name, "calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += s.seconds
        row["self_s"] += selfs[s.id]
    return sorted(rows.values(), key=lambda r: -r["self_s"])
