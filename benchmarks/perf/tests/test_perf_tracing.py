"""Span recording, patching of every bound copy, self-time arithmetic."""

import sys
import types

import pytest

import tracing
from tracing import Span, Target, Tracer


def span(id, parent, name, start, end, request=None, counts=None):
    return Span(id, parent, name, request, start, end, counts)


def test_self_time_is_duration_minus_direct_children():
    spans = [
        span(1, None, "root", 0.0, 10.0),
        span(2, 1, "a", 1.0, 4.0),
        span(3, 2, "a.inner", 2.0, 3.0),  # grandchild: charged to 2, not 1
        span(4, 1, "b", 5.0, 7.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 2.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(2.0)
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_overlapping_children_count_once_and_strays_take_nothing():
    spans = [
        span(1, None, "root", 0.0, 10.0),
        span(2, 1, "worker", 1.0, 5.0),
        span(3, 1, "worker", 3.0, 8.0),  # parallel with 2: union is 1..8
        span(4, 1, "late", 12.0, 20.0),  # started by root, ran after it returned
        span(5, 1, "edge", 9.0, 11.0),  # clipped to the parent's interval
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 7.0 - 1.0)
    assert selfs[4] == pytest.approx(8.0)


def test_outermost_seconds_skips_nested_calls_of_the_same_layer():
    spans = [
        span(1, None, "expr.a", 0.0, 5.0),
        span(2, 1, "other", 1.0, 4.0),
        span(3, 2, "expr.b", 2.0, 3.0),  # under expr.a through another layer
        span(4, None, "expr.b", 6.0, 7.0),
    ]
    assert tracing.outermost_seconds(spans, {"expr.a", "expr.b"}) == pytest.approx(6.0)


def test_span_table_and_counts():
    spans = [
        span(1, None, "q", 0.0, 4.0, counts={"rows": 10}),
        span(2, 1, "k", 1.0, 2.0, counts={"rows": 5, "keys": 2}),
        span(3, 1, "k", 2.0, 3.0),
    ]
    assert tracing.sum_counts(spans) == {"rows": 15, "keys": 2}
    table = {row["name"]: row for row in tracing.span_table(spans)}
    assert table["k"]["calls"] == 2
    assert table["k"]["total_s"] == pytest.approx(2.0)
    assert table["q"]["self_s"] == pytest.approx(2.0)


@pytest.fixture
def fake_package():
    """``perf_fake.lib`` defines ``work``; ``perf_fake.user`` bound a
    copy with ``from perf_fake.lib import work``."""
    lib = types.ModuleType("perf_fake.lib")
    user = types.ModuleType("perf_fake.user")
    package = types.ModuleType("perf_fake")

    def work(x):
        return x + 1

    class Box:
        def double(self, x):
            return 2 * lib.work(x)  # looked up on the module, like real code

    lib.work = work
    lib.Box = Box
    user.work = work
    user.call = lambda x: user.work(x)
    modules = {"perf_fake": package, "perf_fake.lib": lib, "perf_fake.user": user}
    sys.modules.update(modules)
    yield lib, user
    for name in modules:
        del sys.modules[name]


def test_install_patches_every_bound_copy_and_uninstall_restores(fake_package):
    lib, user = fake_package
    original = lib.work
    tracer = Tracer(prefix="perf_fake")
    tracer.install([
        Target("perf_fake.lib", "work", "lib.work",
               count=lambda args, kwargs, result: {"calls": 1, "out": result}),
        Target("perf_fake.lib:Box", "double", "lib.double"),
    ])
    assert lib.work is not original and user.work is lib.work
    assert user.call(1) == 2
    assert lib.Box().double(3) == 8
    tracer.uninstall()
    assert lib.work is original and user.work is original

    spans = tracer.drain()
    assert [s.name for s in spans] == ["lib.work", "lib.work", "lib.double"]
    inner, outer = spans[1], spans[2]
    assert inner.parent == outer.id and outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert tracing.sum_counts(spans) == {"calls": 2, "out": 2 + 4}
    assert tracer.drain() == []
    assert user.call(1) == 2 and tracer.spans == []  # no longer recording


def test_request_ids_come_from_results_and_arguments(fake_package):
    lib, user = fake_package
    lib.decode = lambda raw: {"trace_id": raw}
    lib.serve = lambda config=None: lib.work(0)
    tracer = Tracer(prefix="perf_fake")
    tracer.install([
        Target("perf_fake.lib", "decode", "decode",
               request_out=lambda result: result["trace_id"]),
        Target("perf_fake.lib", "work", "work"),
        Target("perf_fake.lib", "serve", "serve",
               request_in=lambda args, kwargs: kwargs.get("config")),
    ])
    try:
        lib.serve(config="from-args")  # context carries no request yet
        lib.decode("r-1")
        lib.work(0)  # same context, after the frame was decoded
        lib.serve(config="ignored")  # the context's request wins
    finally:
        tracer.uninstall()
        tracing.set_request(None)
    by_name = {}
    for s in tracer.drain():
        by_name.setdefault(s.name, []).append(s.request)
    assert by_name["decode"] == ["r-1"]
    assert by_name["serve"] == ["from-args", "r-1"]
    assert by_name["work"] == ["from-args", "r-1", "r-1"]


def test_a_raising_call_still_leaves_its_span(fake_package):
    lib, _ = fake_package

    def boom():
        raise ValueError("x")

    lib.boom = boom
    tracer = Tracer(prefix="perf_fake")
    tracer.install([Target("perf_fake.lib", "boom", "boom")])
    try:
        with pytest.raises(ValueError):
            lib.boom()
    finally:
        tracer.uninstall()
    (only,) = tracer.drain()
    assert only.name == "boom" and only.counts is None
