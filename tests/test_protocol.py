"""Wire protocol: codecs, error-code mapping, framing edge cases.

The second half drives a real asyncio server over raw sockets and
abuses the framing layer — split frames, oversized frames, garbage
bytes, unknown request types, concurrent requests on one connection.
The contract under test: every well-framed abuse gets a typed
``ERROR`` frame on a connection that *keeps serving*.
"""

from __future__ import annotations

import re
import socket
import time

import pytest

from repro.core.runner import RunConfig
from repro.errors import (
    EngineSaturated,
    FrameTooLarge,
    MemoryBudgetExceeded,
    MIN_RETRY_AFTER,
    PlanError,
    ProtocolError,
    QueryCancelled,
    QueryTimeout,
    RemoteError,
    ServiceUnavailable,
)
from repro.service import Engine, ServerConfig, ServerThread, protocol
from repro.service.protocol import (
    HEADER,
    code_for_exception,
    decode_body,
    encode_frame,
    error_frame_for,
    exception_for_response,
    ping_request,
    query_request,
    recv_frame,
    send_frame,
)
from repro.tpch import generate_tpch
from repro.tpch.queries import get_query

SF = 0.002
MAX_FRAME = 64 * 1024


@pytest.fixture(scope="module")
def catalog():
    return generate_tpch(sf=SF, seed=0)


@pytest.fixture(scope="module")
def served(catalog):
    """A live server thread over a 2-worker engine (q1 + q3)."""
    specs = {s.name: s for s in (get_query(1, sf=SF), get_query(3, sf=SF))}
    engine = Engine(
        catalog, config=RunConfig(partition_rows=64), workers=2
    )
    try:
        with ServerThread(
            engine,
            specs,
            config=ServerConfig(
                max_frame_bytes=MAX_FRAME,
                read_timeout=2.0,
                write_timeout=2.0,
            ),
        ) as st:
            yield st
    finally:
        engine.shutdown(wait=True, cancel=True)


def _connect(st: ServerThread) -> socket.socket:
    sock = socket.create_connection((st.host, st.port), timeout=5)
    sock.settimeout(10)
    return sock


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
def test_frame_roundtrip():
    body = {"type": "QUERY", "id": 7, "query": "q3", "timeout_ms": 250.0}
    data = encode_frame(body)
    (length,) = HEADER.unpack(data[: HEADER.size])
    assert length == len(data) - HEADER.size
    assert decode_body(data[HEADER.size:]) == body


def test_encode_rejects_oversized_body():
    with pytest.raises(FrameTooLarge) as err:
        encode_frame({"type": "X", "blob": "y" * 4096}, 1024)
    assert err.value.length > err.value.limit == 1024


@pytest.mark.parametrize(
    "raw",
    [b"\xff\xfe garbage", b"[1,2,3]", b'"just a string"', b'{"no": "type"}',
     b'{"type": 42}'],
)
def test_decode_rejects_malformed_bodies(raw):
    with pytest.raises(ProtocolError):
        decode_body(raw)


# ----------------------------------------------------------------------
# Error-code mapping (both directions)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("exc", "code"),
    [
        (QueryTimeout("t"), "timeout"),
        (QueryCancelled("c"), "cancelled"),
        (MemoryBudgetExceeded("m"), "budget"),
        (EngineSaturated("s"), "saturated"),
        (ServiceUnavailable("u"), "unavailable"),
        (ProtocolError("p"), "protocol"),
        (FrameTooLarge(9, 1), "frame_too_large"),
        (PlanError("b"), "bad_request"),
        (RuntimeError("?"), "internal"),
    ],
)
def test_code_for_exception(exc, code):
    assert code_for_exception(exc) == code


@pytest.mark.parametrize(
    ("code", "cls"),
    [
        ("timeout", QueryTimeout),
        ("cancelled", QueryCancelled),
        ("budget", MemoryBudgetExceeded),
        ("saturated", EngineSaturated),
        ("unavailable", ServiceUnavailable),
        ("protocol", ProtocolError),
        ("frame_too_large", ProtocolError),
        ("bad_request", PlanError),
        ("internal", RemoteError),
        ("some-future-code", RemoteError),
    ],
)
def test_exception_for_response(code, cls):
    exc = exception_for_response(
        {"type": "ERROR", "id": 1, "code": code, "message": "m"}
    )
    assert isinstance(exc, cls)


def test_docstring_code_table_is_the_mapping():
    """The module docstring's code column names each code of
    ``_CODE_BY_TYPE`` once, plus the ``internal`` fallback."""
    lines = protocol.__doc__.splitlines()
    rules = [i for i, line in enumerate(lines) if line.startswith("====")]
    table = lines[rules[1] + 1 : rules[2]]
    documented = [
        m.group(1) for m in map(re.compile(r"``(\w+)``").match, table) if m
    ]
    mapped = {code for _, code, _ in protocol._CODE_BY_TYPE} | {"internal"}
    assert sorted(documented) == sorted(mapped)


def test_saturation_maps_to_retry_frame_and_back():
    frame = error_frame_for(5, EngineSaturated("busy", retry_after=0.25))
    assert frame["type"] == "RETRY" and frame["id"] == 5
    assert frame["retry_after"] == pytest.approx(0.25)
    back = exception_for_response(frame)
    assert isinstance(back, EngineSaturated)
    assert back.retry_after == pytest.approx(0.25)


def test_retry_reconstruction_applies_floor():
    # A zero/absent hint from the wire still honours the hot-spin floor.
    back = exception_for_response(
        {"type": "RETRY", "id": 1, "retry_after": 0.0}
    )
    assert back.retry_after >= MIN_RETRY_AFTER


# ----------------------------------------------------------------------
# Framing over real sockets
# ----------------------------------------------------------------------
def test_split_frame_is_reassembled(served):
    """A frame dribbled in 1-byte writes still parses (partial reads)."""
    with _connect(served) as sock:
        data = encode_frame(ping_request(1))
        for i in range(len(data)):
            sock.sendall(data[i : i + 1])
            time.sleep(0.001)
        frame = recv_frame(sock, MAX_FRAME)
    assert frame["type"] == "PONG" and frame["id"] == 1


def test_oversized_frame_answered_and_connection_survives(served):
    with _connect(served) as sock:
        length = MAX_FRAME + 100
        sock.sendall(HEADER.pack(length) + b"x" * length)
        frame = recv_frame(sock, MAX_FRAME)
        assert frame["type"] == "ERROR"
        assert frame["code"] == "frame_too_large"
        # The framing stayed intact: the same connection keeps serving.
        send_frame(sock, ping_request(2))
        assert recv_frame(sock, MAX_FRAME)["type"] == "PONG"


def test_garbage_body_answered_and_connection_survives(served):
    with _connect(served) as sock:
        payload = b"\x00\xffnot json at all"
        sock.sendall(HEADER.pack(len(payload)) + payload)
        frame = recv_frame(sock, MAX_FRAME)
        assert frame["type"] == "ERROR" and frame["code"] == "protocol"
        send_frame(sock, ping_request(3))
        assert recv_frame(sock, MAX_FRAME)["type"] == "PONG"


def test_unknown_request_type_is_typed_error(served):
    with _connect(served) as sock:
        send_frame(sock, {"type": "BOGUS", "id": 9})
        frame = recv_frame(sock, MAX_FRAME)
    assert frame["type"] == "ERROR"
    assert frame["code"] == "protocol"
    assert frame["id"] == 9  # attributable → echoed


def test_concurrent_requests_multiplex_on_one_connection(served):
    """Two queries + a ping pipelined; responses match by id."""
    with _connect(served) as sock:
        send_frame(sock, query_request(11, "q3"))
        send_frame(sock, query_request(12, "q1"))
        send_frame(sock, ping_request(13))
        got = {}
        for _ in range(3):
            frame = recv_frame(sock, MAX_FRAME)
            got[frame["id"]] = frame
    assert set(got) == {11, 12, 13}
    assert got[11]["type"] == "RESULT" and got[11]["rows"] > 0
    assert got[12]["type"] == "RESULT" and got[12]["rows"] > 0
    assert got[13]["type"] == "PONG"
    # Distinct queries produced distinct digests.
    assert got[11]["digest"] != got[12]["digest"]
