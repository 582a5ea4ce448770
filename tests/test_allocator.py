"""The package pins glibc's malloc thresholds on import (repro.allocator)."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro import allocator

glibc_only = pytest.mark.skipif(
    not allocator._is_glibc(), reason="thresholds are pinned on glibc only"
)

#: Two 16 MiB temporaries live at once, then freed — the shape of a
#: join's index and gather arrays.  With glibc's dynamic thresholds the
#: freed 32 MiB heap top exceeds the trim threshold the first free set,
#: so every round hands it back and faults it in again (≈ 22 700 minor
#: faults over 20 rounds); pinned, the heap keeps it.
_CHURN = """
import resource
import numpy as np
import repro

def churn():
    a = np.ones(2_000_000)
    b = np.ones(2_000_000)
    del a, b

churn()
churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@glibc_only
def test_pin_thresholds_is_accepted():
    assert allocator.pin_thresholds() is True


@glibc_only
def test_column_sized_temporaries_do_not_refault_after_import():
    src = str(pathlib.Path(allocator.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _CHURN],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    )
    # One round touches 8 192 pages; allow stray interpreter faults.
    assert int(out.stdout) < 500
