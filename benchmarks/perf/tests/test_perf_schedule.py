"""Schedules are a pure function of (seed, connection)."""

import itertools
from collections import Counter

import serving

VARIABLE = ["q3", "q5", "q7", "q8", "q10", "q12"]


def take(schedule, n):
    return list(itertools.islice(schedule, n))


def test_same_seed_same_schedule():
    a = take(serving.mixed_schedule(7, 0, VARIABLE), 500)
    b = take(serving.mixed_schedule(7, 0, VARIABLE), 500)
    assert a == b


def test_seed_and_connection_change_the_schedule():
    base = take(serving.mixed_schedule(7, 0, VARIABLE), 200)
    assert base != take(serving.mixed_schedule(8, 0, VARIABLE), 200)
    assert base != take(serving.mixed_schedule(7, 1, VARIABLE), 200)


def test_every_deck_has_the_same_composition():
    deck_size = len(serving.REPEAT_SET) * serving.DECK_REPEATS + serving.DECK_VARIED
    ops = take(serving.mixed_schedule(3, 0, VARIABLE), 4 * deck_size)
    for start in range(0, len(ops), deck_size):
        names = [name for _, name in ops[start:start + deck_size]]
        counts = Counter(names)
        assert all(counts[base] == serving.DECK_REPEATS for base in serving.REPEAT_SET)
        varied = [n for n in names if n not in serving.REPEAT_SET]
        assert len(varied) == serving.DECK_VARIED  # 22 of 55 = 40 %
        per_base = Counter(n.split("@")[0] for n in varied)
        assert set(per_base) == set(VARIABLE)
        for name in varied:
            base, delta = name.split("@")
            assert int(delta) in serving.DELTAS
            assert name == serving.variant_name(base, int(delta))


def test_date_shifts_are_skewed_towards_small_ranks():
    ops = take(serving.mixed_schedule(5, 0, VARIABLE), 5500)
    deltas = Counter(
        int(name.split("@")[1]) for _, name in ops if "@" in name
    )
    assert deltas[1] > deltas[30] > 0 or deltas[30] == 0
    assert deltas[1] > 5 * max(deltas[60], 1)


def test_ingest_schedule_is_one_write_then_ten_reads():
    ops = take(serving.ingest_schedule(2, 1), 44)
    for start in range(0, 44, 11):
        assert ops[start] == ("ingest", None)
        reads = ops[start + 1:start + 11]
        assert all(op == "query" and name in serving.REPEAT_SET for op, name in reads)
    assert take(serving.ingest_schedule(2, 1), 44) == ops
    assert take(serving.ingest_schedule(3, 1), 44) != ops
