"""Pin glibc's malloc thresholds so column-sized temporaries are reused.

glibc serves a block above its mmap threshold (128 KiB at start) with a
fresh ``mmap``, and hands the top of a heap back to the kernel once more
than the trim threshold of it is free.  Either way the next block of
that size faults its pages in again.  glibc raises both thresholds (to
at most 32 MiB and 64 MiB) only when a block above the mmap threshold
is freed, so what a query pays depended on what the process freed
before it: a data generator that freed one large Python list left the
thresholds high, a leaner one left them low, and the same queries then
faulted in a few MB each — 0.5–1.1 M minor faults in a 10 s
``serve_mixed`` window (2 vCPUs, glibc 2.36), and a latency that moved
with the host's memory pressure from run to run.

:func:`pin_thresholds` sets both to the ceiling of glibc's own rule from
the start, which also turns the rule off: a block up to 32 MiB comes
from the heap, and up to 64 MiB of free heap top stays mapped.  The
same window then takes 0.1–0.6 M faults.  The package calls it on
import; on any other C library it does nothing.
"""

from __future__ import annotations

import ctypes
import os

#: ``mallopt`` parameter numbers (``malloc.h``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: The ceiling of glibc's dynamic mmap threshold on 64-bit hosts
#: (``DEFAULT_MMAP_THRESHOLD_MAX``; ``mallopt`` refuses more) and the
#: trim threshold the dynamic rule pairs with it.
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def _is_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return False


def pin_thresholds() -> bool:
    """Set glibc's mmap and trim thresholds; ``True`` when both took."""
    if not _is_glibc():
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    )
