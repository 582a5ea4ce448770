"""What every generated catalog promises, whatever builds it.

* Pinned digests: each column's name, type, data bytes, decoded
  dictionary and validity hash to constants.  A generator change that
  moves one byte of one column — an extra RNG draw, a dictionary in a
  different order — fails here before any query digest could notice.
* Every STRING dictionary holds plain ``str``.
* Generation allocates at most twice the bytes of the columns it
  returns (under ``tracemalloc``; sizes are deterministic, so the bound
  has no timing noise).
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.ssb import generate_ssb
from repro.storage.catalog import Catalog
from repro.tpch import generate_tpch

GENERATORS = {"tpch": generate_tpch, "ssb": generate_ssb}

#: ``catalog_digest`` of each generator at SF 0.02, by (generator, seed).
PINNED = {
    ("tpch", 0): "08b6a4ba62255f1dd710c5f43d0b8207b0f46f9a9e4ec64ef2d0ce35734555a8",
    ("tpch", 1): "d6aa4316afc35b66a351a1d8f74714a86f3e9e73f1c59fbd7c7cd98fc97627f6",
    ("ssb", 0): "bed76aae8a52636c4bc385e2b8cbd72547994ea7cbe585fee2992bb5ec81e5bc",
    ("ssb", 1): "b202d1a7d64383fe22dc0ac778c494f5d54554a0f24a0f769df07f10c9925f1e",
}


def catalog_digest(catalog: Catalog) -> str:
    h = hashlib.sha256()
    for table_name in catalog.names():
        for name, col in catalog.get(table_name).columns.items():
            tag = f"\x1e{table_name}.{name}:{col.dtype.value}:{col.data.dtype.str}"
            h.update(tag.encode())
            h.update(np.ascontiguousarray(col.data).tobytes())
            if col.dictionary is not None:
                h.update("\x1f".join(map(str, col.dictionary)).encode())
            if col.valid is not None:
                h.update(np.ascontiguousarray(col.valid).tobytes())
    return h.hexdigest()


@pytest.fixture(
    scope="module", params=sorted(PINNED), ids=lambda k: f"{k[0]}-seed{k[1]}"
)
def generated(request):
    kind, seed = request.param
    return kind, seed, GENERATORS[kind](0.02, seed)


def test_catalog_digest_is_pinned(generated):
    kind, seed, catalog = generated
    assert catalog_digest(catalog) == PINNED[(kind, seed)]


def test_string_dictionaries_hold_plain_str(generated):
    _, _, catalog = generated
    for table_name in catalog.names():
        for name, col in catalog.get(table_name).columns.items():
            if col.dictionary is not None:
                kinds = {type(v) for v in col.dictionary}
                assert kinds == {str}, (table_name, name, kinds)


def test_tpch_generation_allocates_at_most_twice_its_columns():
    tracemalloc.start()
    try:
        catalog = generate_tpch(0.05, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    column_bytes = sum(
        col.data.nbytes + (0 if col.valid is None else col.valid.nbytes)
        for table_name in catalog.names()
        for col in catalog.get(table_name).columns.values()
    )
    assert peak <= 2.0 * column_bytes, peak / column_bytes
