"""Transferable filter substrate: Bloom filters, exact filters, bitmaps,
hashing.

Two Bloom layouts live here: the packed register-blocked
:class:`BloomFilter` (the production hot-path filter) and the
byte-per-bit :class:`ReferenceBloomFilter` it is equivalence-tested
against.  :class:`ExactFilter` is the semi-join-precise hash set.
:class:`BitmapFilter` is the presence bitmap over ``key − min`` that a
single dense integer key ships in place of either, whenever its span
fits a cache-sized cap or it takes no more bits: no hash, no false
positives.  :class:`KeyHashCache` is the
per-query key normalizer and hasher the pre-filter loop calls once per
morsel.
"""

from .base import TransferableFilter
from .bitmap import BitmapFilter
from .bloom import BloomFilter
from .exact import ExactFilter
from .hashcache import KeyHashCache
from .hashing import (
    bloom_hash_pair,
    bloom_keys,
    column_to_u64,
    fnv1a_text,
    fnv1a_texts,
    hash_combine,
    mix64,
    splitmix64,
)
from .hashset import VectorHashSet
from .reference import ReferenceBloomFilter

__all__ = [
    "BitmapFilter",
    "BloomFilter",
    "ExactFilter",
    "KeyHashCache",
    "ReferenceBloomFilter",
    "VectorHashSet",
    "TransferableFilter",
    "bloom_hash_pair",
    "bloom_keys",
    "column_to_u64",
    "fnv1a_text",
    "fnv1a_texts",
    "hash_combine",
    "mix64",
    "splitmix64",
]
