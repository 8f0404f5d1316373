"""Tests for the in-memory and asyncio transports."""

import asyncio

import pytest

from repro.http2.channel import H2Channel
from repro.http2.connection import (
    DataReceived,
    H2Connection,
    Role,
    StreamEnded,
)
from repro.http2.serverloop import MiniResponse, ServerLoop
from repro.http2.transport import Endpoint, InMemoryTransportPair


class TestEndpoint:
    def test_take_events_drains(self):
        endpoint = Endpoint(H2Connection(Role.CLIENT))
        endpoint.events = [DataReceived(stream_id=1), StreamEnded(stream_id=1)]
        assert len(endpoint.take_events()) == 2
        assert endpoint.take_events() == []

    def test_take_events_filtered(self):
        endpoint = Endpoint(H2Connection(Role.CLIENT))
        endpoint.events = [DataReceived(stream_id=1), StreamEnded(stream_id=1)]
        data = endpoint.take_events(DataReceived)
        assert len(data) == 1
        assert len(endpoint.events) == 1  # the StreamEnded remains


class TestInMemoryPair:
    def test_handshake_quiesces(self):
        pair = InMemoryTransportPair(
            H2Connection(Role.CLIENT, gen_ability=True),
            H2Connection(Role.SERVER, gen_ability=True),
        )
        pair.handshake()
        # After quiescing there must be nothing left to send.
        assert pair.client.conn.data_to_send() == b""
        assert pair.server.conn.data_to_send() == b""

    def test_pump_detects_livelock(self):
        pair = InMemoryTransportPair(H2Connection(Role.CLIENT), H2Connection(Role.SERVER))
        pair.handshake()

        class Chatterbox:
            def data_to_send(self):
                # A complete unknown-type frame: parsed, ignored, repeated
                # forever — the transport must give up rather than spin.
                return b"\x00\x00\x00\xee\x00\x00\x00\x00\x00"

            def receive_data(self, data):
                return []

        pair.client.conn = Chatterbox()
        with pytest.raises(RuntimeError):
            pair.pump()


class TestTcpTransport:
    """End-to-end over a real asyncio TCP socket: the client channel
    against the server connection loop."""

    def test_request_response_over_tcp(self):
        async def scenario():
            async def handler(request):
                return MiniResponse(body=b"tcp-works", content_type="text/plain")

            async def on_connect(reader, writer):
                conn = H2Connection(Role.SERVER, gen_ability=True)
                await ServerLoop(conn, reader, writer, handler).run()

            server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]

            client_conn = H2Connection(Role.CLIENT, gen_ability=True)
            channel = await H2Channel.open("127.0.0.1", port, client_conn)
            response = await asyncio.wait_for(
                channel.request(
                    [(b":method", b"GET"), (b":path", b"/"), (b":scheme", b"https"), (b":authority", b"t")]
                ),
                timeout=5,
            )
            negotiated = client_conn.gen_ability_negotiated
            await channel.close()
            server.close()
            await server.wait_closed()
            return response.status, bytes(response.body), negotiated

        status, body, negotiated = asyncio.run(scenario())
        assert status == 200
        assert body == b"tcp-works"
        assert negotiated
