"""Wire protocol and server admission: JSON-lines framing, typed errors.

Exercises the real TCP path (:class:`~repro.serve.TcpClient` against a
listener on an ephemeral port) plus the in-process admission rules:
unknown kinds and designs answer typed failures, malformed frames answer
``bad_request`` without dropping the connection, and a full compose/eco/
check conversation round-trips with its result payload intact.
"""

from __future__ import annotations

import asyncio
import math

from repro.geometry import Rect, clamp_to_die
from repro.serve import (
    ERR_UNKNOWN_DESIGN,
    ERR_UNKNOWN_KIND,
    PROTOCOL_SCHEMA,
    Client,
    ComposeServer,
    DesignRegistry,
    JobRequest,
    JobResponse,
    TcpClient,
)
from repro.serve.protocol import encode_line

from tests.serve.conftest import tcp_server


def small_registry() -> DesignRegistry:
    registry = DesignRegistry()
    registry.add_preset("tiny", "D1", scale=0.06)
    return registry


def test_clamp_keeps_the_footprint_on_the_die():
    # 79.7 - 6.68 rounds up to 73.02000000000001, whose footprint would end
    # at 79.70000000000002, past the die edge.
    die = Rect(0.0, 0.0, 79.7, 79.7)
    x, y = clamp_to_die(die, 6.68, 6.68, 1000.0, 1000.0)
    assert x + 6.68 <= 79.7 and y + 6.68 <= 79.7
    assert x == y == math.nextafter(79.7 - 6.68, -math.inf)


def test_clamp_leaves_exact_bounds_and_inner_points_alone():
    die = Rect(0.0, 0.0, 100.0, 50.0)
    assert clamp_to_die(die, 2.0, 2.0, 1000.0, -5.0) == (98.0, 0.0)
    assert clamp_to_die(die, 2.0, 2.0, 12.3, 4.5) == (12.3, 4.5)


def test_request_response_wire_round_trip():
    request = JobRequest(
        kind="eco", design="d", params={"seed": 1, "moves": 2}, id="j7"
    )
    assert JobRequest.from_wire(request.to_wire()) == request
    response = JobResponse.success(request, {"moves_applied": 2})
    wire = response.to_wire()
    assert wire["schema"] == PROTOCOL_SCHEMA
    back = JobResponse.from_wire(wire)
    assert back.ok and back.result == {"moves_applied": 2} and back.id == "j7"


def test_unknown_kind_and_design_are_typed():
    server = ComposeServer(small_registry())
    client = Client(server)

    async def main():
        r1 = await client.submit("explode", "tiny")
        assert not r1.ok and r1.error_code == ERR_UNKNOWN_KIND
        r2 = await client.submit("compose", "missing")
        assert not r2.ok and r2.error_code == ERR_UNKNOWN_DESIGN
        assert "tiny" in r2.error  # the registered names are named
        await server.aclose()

    asyncio.run(main())


def test_tcp_conversation():
    with tcp_server(small_registry()) as (host, port):
        with TcpClient(host, port) as client:
            status = client.submit("status")
            assert status.ok
            assert status.result["queue_depth"] == 8
            assert "tiny" in status.result["designs"]

            prime = client.submit("compose", "tiny")
            assert prime.ok
            assert prime.result["registers_after"] <= prime.result["registers_before"]

            eco = client.submit(
                "eco", "tiny", {"seed": 9, "moves": 1, "signatures": True}
            )
            assert eco.ok
            assert eco.result["moves_applied"] == 1
            assert len(eco.result["placement_digest"]) == 64

            check = client.submit("check", "tiny")
            assert check.ok and check.result["clean"]


def test_tcp_malformed_frames_answer_bad_request():
    with tcp_server(small_registry()) as (host, port):
        with TcpClient(host, port) as client:
            # Not JSON at all.
            reply = client.send_raw(b"{this is not json\n")
            assert reply["ok"] is False
            assert reply["error"]["code"] == "bad_request"
            assert reply["id"] == ""

            # Valid JSON, wrong schema tag.
            reply = client.send_raw(
                encode_line({"schema": "nope/9", "kind": "status", "id": "x"})
            )
            assert reply["error"]["code"] == "bad_request"

            # Valid JSON, no kind.
            reply = client.send_raw(encode_line({"schema": PROTOCOL_SCHEMA}))
            assert reply["error"]["code"] == "bad_request"

            # The connection survived all three: a real request still works.
            assert client.submit("status").ok


def test_tcp_unknown_design_over_the_wire():
    with tcp_server(small_registry()) as (host, port):
        with TcpClient(host, port) as client:
            reply = client.submit("compose", "missing")
            assert not reply.ok
            assert reply.error_code == ERR_UNKNOWN_DESIGN


def test_per_design_status_inline():
    server = ComposeServer(small_registry())
    client = Client(server)

    async def main():
        r = await client.submit("status", "tiny")
        assert r.ok
        assert r.result["design"] == "tiny"
        assert r.result["primed"] is False
        assert r.result["registers"] > 0
        await server.aclose()

    asyncio.run(main())
