"""Transferable filter substrate: Bloom filters, exact filters, hashing.

Two Bloom layouts live here: the packed register-blocked
:class:`BloomFilter` (the production hot-path filter) and the
byte-per-bit :class:`ReferenceBloomFilter` it is equivalence-tested
against.  :class:`KeyHashCache` is the per-query key normalizer and
hasher the pre-filter loop calls once per morsel.
"""

from .base import FilterOpCounts, TransferableFilter
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
    "BloomFilter",
    "ExactFilter",
    "KeyHashCache",
    "ReferenceBloomFilter",
    "VectorHashSet",
    "FilterOpCounts",
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
