"""TPC-H text machinery: word lists and comment pools.

The word lists (colors, type syllables, containers, segments, modes,
priorities, nations, regions) follow the TPC-H specification — every
value a benchmark query predicate mentions is present with the spec's
cardinality, so predicate selectivities match dbgen's.

Comments are generated from a bounded pool of distinct strings rather
than dbgen's full text grammar (a documented substitution, DESIGN.md
§2): LIKE predicates evaluate over the dictionary, so what matters is
the *fraction of rows* whose comment matches the handful of patterns
the queries test (``%special%requests%``, ``%Customer%Complaints%``),
and that fraction is injected explicitly at the spec's rates.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

# --- p_name colors (the spec's 92-color list, abbreviated to the subset
# that preserves every queried pattern: "green" for Q9, "forest" for
# Q20, plus enough others for realistic selectivity: matching fraction
# of a single color ~= 5/len(COLORS) per the 5-word name construction).
COLORS = [
    "almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
    "blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse",
    "chiffon", "chocolate", "coral", "cornflower", "cornsilk", "cream", "cyan",
    "dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest",
    "frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew",
    "hot", "indian", "ivory", "khaki", "lace", "lavender", "lawn", "lemon",
    "light", "lime", "linen", "magenta", "maroon", "medium", "metallic", "midnight",
    "mint", "misty", "moccasin", "navajo", "navy", "olive", "orange", "orchid",
    "pale", "papaya", "peach", "peru", "pink", "plum", "powder", "puff",
    "purple", "red", "rose", "rosy", "royal", "saddle", "salmon", "sandy",
    "seashell", "sienna", "sky", "slate", "smoke", "snow", "spring", "steel",
    "tan", "thistle", "tomato", "turquoise", "violet", "wheat", "white", "yellow",
]

TYPE_SYLLABLE_1 = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
TYPE_SYLLABLE_2 = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"]
TYPE_SYLLABLE_3 = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"]

CONTAINER_SYLLABLE_1 = ["SM", "LG", "MED", "JUMBO", "WRAP"]
CONTAINER_SYLLABLE_2 = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"]

SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
INSTRUCTIONS = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"]
MODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]

# (name, regionkey) in nationkey order 0..24, per the TPC-H spec.
NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]

_NOUNS = [
    "packages", "requests", "accounts", "deposits", "foxes", "ideas",
    "theodolites", "pinto beans", "instructions", "dependencies", "excuses",
    "platelets", "asymptotes", "courts", "dolphins", "multipliers",
    "sauternes", "warthogs", "frets", "dinos", "attainments", "somas",
    "braids", "grouches", "sheaves", "waters", "decoys", "epitaphs",
]
_VERBS = [
    "sleep", "wake", "are", "cajole", "haggle", "nag", "use", "boost",
    "affix", "detect", "integrate", "maintain", "nod", "was", "lose",
    "sublate", "solve", "thrash", "promise", "engage", "hinder", "print",
    "x-ray", "breach", "eat", "grow", "impress", "mold", "poach",
]
_ADJECTIVES = [
    "furious", "sly", "careful", "blithe", "quick", "fluffy", "slow",
    "quiet", "ruthless", "thin", "close", "dogged", "daring", "brave",
    "stealthy", "permanent", "enticing", "idle", "busy", "regular",
    "final", "ironic", "even", "bold", "silent", "pending", "special",
    "express", "unusual",
]


def comment_pool(rng: np.random.Generator, size: int) -> np.ndarray:
    """A pool of ``size`` distinct plausible comment strings."""
    adj = rng.integers(0, len(_ADJECTIVES), size=size)
    noun = rng.integers(0, len(_NOUNS), size=size)
    verb = rng.integers(0, len(_VERBS), size=size)
    noun2 = rng.integers(0, len(_NOUNS), size=size)
    pool = {
        f"{_ADJECTIVES[a]} {_NOUNS[n]} {_VERBS[v]} above the {_NOUNS[m]}"
        for a, n, v, m in zip(adj, noun, verb, noun2)
    }
    return np.asarray(sorted(pool), dtype=object)


def special_requests_comments(rng: np.random.Generator, size: int) -> np.ndarray:
    """Comments matching Q13's ``%special%requests%`` pattern."""
    adj = rng.integers(0, len(_ADJECTIVES), size=size)
    verb = rng.integers(0, len(_VERBS), size=size)
    return np.asarray(
        [
            f"{_ADJECTIVES[a]} special packages {_VERBS[v]} requests"
            for a, v in zip(adj, verb)
        ],
        dtype=object,
    )


def customer_complaints_comments(rng: np.random.Generator, size: int) -> np.ndarray:
    """Comments matching Q16's ``%Customer%Complaints%`` pattern."""
    adj = rng.integers(0, len(_ADJECTIVES), size=size)
    return np.asarray(
        [f"{_ADJECTIVES[a]} Customer slow Complaints" for a in adj], dtype=object
    )


def joined_pool(
    codes: Sequence[np.ndarray], words: Sequence[Sequence[str]]
) -> tuple[np.ndarray, list[str]]:
    """Rows of space-joined words as ``(codes, pool)``, nothing decoded.

    Row ``r`` stands for ``" ".join(w[c[r]] for w, c in zip(words,
    codes))``.  The pool holds every combination in row-major order and
    the returned codes index into it, ready for
    :meth:`~repro.storage.column.Column.from_pool`.
    """
    pool = [" ".join(combo) for combo in itertools.product(*words)]
    flat = np.ravel_multi_index(tuple(codes), tuple(len(w) for w in words))
    return flat, pool


def part_names(rng: np.random.Generator, count: int) -> np.ndarray:
    """p_name values: five space-joined colors, as in the spec."""
    picks = rng.integers(0, len(COLORS), size=(count, 5))
    color_arr = np.asarray(COLORS, dtype=object)
    words = color_arr[picks]
    return np.asarray(
        [" ".join(row) for row in words],
        dtype=object,
    )
