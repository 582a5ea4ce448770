"""Morsel-style intra-query parallelism.

:class:`ParallelContext` is the execution-side companion of the
partition layouts in :mod:`repro.storage.partition`: it fans chunked
kernels (scan predicate evaluation, Bloom build/probe, hash-set probe,
hash-join probe) out over a thread pool and merges the per-chunk
results **in chunk order**, so every parallel kernel is byte-identical
to its serial counterpart.

Determinism guarantees
----------------------
* Chunk boundaries depend only on input length and the context's
  thread count, and every merge is an ordered concatenation (row
  results) or a commutative word-wise OR (Bloom filters), so results
  never depend on scheduling.  Different *thread counts* may chunk
  differently, but each kernel's output is chunking-invariant by
  construction — the parallel equivalence sweep in
  ``tests/test_parallel.py`` locks this in byte-for-byte.
* ``threads=1`` (the default) never touches a pool: ``map`` runs
  inline and ``task_bounds`` returns a single chunk, preserving the
  serial executor exactly.

Pool sharing (the service-engine cooperation rule)
--------------------------------------------------
Worker pools are **process-wide, shared by thread count** (one pool of
``N`` threads serves every context created with ``threads=N``).  The
service :class:`~repro.service.engine.Engine` therefore never
multiplies workers: any number of concurrent sessions × queries at
``threads=N`` share the same ``N`` intra-query workers, bounding total
threads at ``engine workers + N`` instead of ``sessions × N``.
Deadlock is impossible by construction: tasks submitted through
``map`` are leaf kernels that never submit further work, so the
two-level pool hierarchy (inter-query pool → intra-query pool) has no
circular wait.

NumPy releases the GIL inside its kernels, so chunked execution gives
real multi-core speedup for the large vectorized operations this
engine runs; on a single-core host the same code path degrades to a
small scheduling overhead.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, Protocol, TypeVar

import numpy as np

from ..context import QueryContext
from ..filters.base import TransferableFilter
from ..filters.bloom import MORSEL_KEYS, BloomFilter
from ..testing.faults import fault_point

T = TypeVar("T")
R = TypeVar("R")

#: Below this many rows a chunk is not worth dispatching to a worker.
MIN_TASK_ROWS = 8192

#: Absolute upper bound on a context's thread count (a guard against
#: pathological configs; not a sizing heuristic).
MAX_THREADS = 64

_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def shared_executor(threads: int) -> ThreadPoolExecutor:
    """The process-wide worker pool for a given thread count.

    Created once per distinct size and reused by every
    :class:`ParallelContext` (and thereby every engine session) that
    asks for that size — the total-worker cap described in the module
    docstring.
    """
    with _POOLS_LOCK:
        pool = _POOLS.get(threads)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix=f"repro-intra{threads}"
            )
            _POOLS[threads] = pool
        return pool


class ParallelContext:
    """Chunked-kernel dispatch with deterministic ordered merging.

    ``threads=1`` is the serial context: everything runs inline and no
    pool is ever created.  ``tasks`` counts chunks actually dispatched
    to a pool (the ``QueryStats.parallel_tasks`` source); use
    :meth:`scoped` to get a per-query view that shares the pool but
    counts independently.
    """

    __slots__ = ("threads", "tasks", "qctx", "_executor")

    def __init__(
        self,
        threads: int = 1,
        executor: ThreadPoolExecutor | None = None,
        qctx: QueryContext | None = None,
    ) -> None:
        self.threads = max(1, min(int(threads), MAX_THREADS))
        self.tasks = 0
        # Checked between chunk kernels; the default never fires.
        self.qctx = qctx or QueryContext()
        self._executor = executor

    # ------------------------------------------------------------------
    @property
    def parallel(self) -> bool:
        """True when this context may dispatch to a worker pool."""
        return self.threads > 1

    def scoped(self, qctx: QueryContext | None = None) -> "ParallelContext":
        """A child sharing the pool with a fresh task counter.

        A :class:`~repro.context.QueryContext` attached here is checked
        between chunk kernels, so even a single long phase aborts
        within one morsel of a deadline or cancellation.
        """
        return ParallelContext(self.threads, self._executor, qctx)

    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = shared_executor(self.threads)
        return self._executor

    # ------------------------------------------------------------------
    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item, returning results in item order.

        Serial contexts (and single-item inputs) run inline; parallel
        contexts dispatch to the shared pool.  ``fn`` must be a leaf
        kernel — it must not call back into ``map`` (see the module
        docstring's deadlock-freedom argument).
        """
        work = list(items)
        qctx = self.qctx
        if not self.parallel or len(work) <= 1:
            out = []
            for item in work:
                qctx.check("chunk kernel")
                fault_point("chunk.kernel")
                out.append(fn(item))
            return out
        self.tasks += len(work)

        def kernel(item: T) -> R:
            # Runs on a pool worker: a failed check raises there and
            # surfaces through the ordered merge below, so the whole
            # phase aborts within one morsel.
            qctx.check("chunk kernel")
            fault_point("chunk.kernel")
            return fn(item)

        return list(self._pool().map(kernel, work))

    def task_bounds(
        self, n: int, min_rows: int = MIN_TASK_ROWS
    ) -> list[tuple[int, int]]:
        """Even half-open chunk bounds over ``n`` rows.

        Serial contexts — and inputs too small to amortize dispatch —
        get a single chunk.  Chunk count is capped at twice the thread
        count (mild oversubscription smooths unequal chunk costs).
        """
        if n <= 0:
            return []
        if not self.parallel or n < 2 * min_rows:
            return [(0, n)]
        k = min(self.threads * 2, n // min_rows)
        if k <= 1:
            return [(0, n)]
        edges = [(n * i) // k for i in range(k + 1)]
        return [(edges[i], edges[i + 1]) for i in range(k)]


def get_parallel(threads: int) -> ParallelContext:
    """A context over the process-wide shared pool for ``threads``."""
    return ParallelContext(threads)


# ----------------------------------------------------------------------
# Shared chunked filter kernels
# ----------------------------------------------------------------------
class HashSource(Protocol):
    """Pre-mixed 64-bit key hashes, produced a slice at a time.

    A plain ``uint64`` array is one; the pre-filter kernel passes a
    lazy source whose slices gather, normalize and hash the rows they
    cover, so no hash array longer than a morsel ever exists.
    """

    def __len__(self) -> int: ...

    def __getitem__(self, rows: slice, /) -> np.ndarray: ...


def morsels(lo: int, hi: int) -> Iterator[slice]:
    """``[lo, hi)`` cut into cache-sized slices."""
    for start in range(lo, hi, MORSEL_KEYS):
        yield slice(start, min(start + MORSEL_KEYS, hi))


def parallel_bloom_build(
    ctx: ParallelContext, hashes: HashSource, capacity: int, fpp: float
) -> BloomFilter:
    """Build a Bloom filter from pre-mixed hashes, partition-parallel.

    Each chunk populates a private filter of identical geometry
    (geometry depends only on ``capacity``/``fpp``) a morsel at a time;
    the parts are then OR-merged word-wise.  Insertion is a monotone
    OR-scatter, so the merged word array is bit-identical to a serial
    single-filter build regardless of chunking or morsel size — which
    keeps cross-query cached filters valid across thread counts.
    """

    def build(chunk: tuple[int, int]) -> BloomFilter:
        part = BloomFilter(capacity=capacity, fpp=fpp)
        for rows in morsels(*chunk):
            part.add_hashes(hashes[rows])
        return part

    bounds = ctx.task_bounds(len(hashes))
    if len(bounds) <= 1:
        return build((0, len(hashes)))
    parts = ctx.map(build, bounds)
    filt = parts[0]
    for part in parts[1:]:
        filt.merge_words(part)
    return filt


def parallel_membership(
    ctx: ParallelContext, filt: TransferableFilter, keys: HashSource
) -> np.ndarray:
    """Chunked membership probe against any transferable filter.

    Bloom filters consume the pre-mixed hashes directly
    (``contains_hashes``); exact filters probe by key.  Every chunk
    walks its range a morsel at a time and writes its own slice of the
    result, byte-identical to one whole-array probe.
    """
    keep = np.empty(len(keys), dtype=np.bool_)
    probe = filt.contains_hashes if isinstance(filt, BloomFilter) else filt.contains_keys

    def run(chunk: tuple[int, int]) -> None:
        for rows in morsels(*chunk):
            keep[rows] = probe(keys[rows])

    bounds = ctx.task_bounds(len(keys))
    if len(bounds) <= 1:
        run((0, len(keys)))
    else:
        ctx.map(run, bounds)
    return keep
