"""The client channel (repro.http2.channel) over real loopback sockets.

Well-behaved peers are the shared server loop (repro.http2.serverloop);
misbehaving ones (GOAWAY, resets, hang-ups) are scripted raw engines, so
each test controls exactly which frames the channel sees.
"""

import asyncio

import pytest

from repro.devices import LAPTOP
from repro.http2.channel import H2Channel
from repro.http2.connection import H2Connection, RequestReceived, Role
from repro.http2.errors import ErrorCode
from repro.http2.frames import GoAwayFrame, RstStreamFrame
from repro.http2 import serverloop
from repro.http2.serverloop import MiniResponse, ServerLoop
from repro.sww.admin import admin_fetch
from repro.sww.client import GenerativeClient

TIMEOUT_S = 5.0


def _get(path: str, method: bytes = b"GET"):
    return [(b":method", method), (b":path", path.encode()), (b":scheme", b"https"), (b":authority", b"t")]


def run(scenario):
    return asyncio.run(asyncio.wait_for(scenario(), timeout=TIMEOUT_S * 2))


async def loop_server(handler):
    """Serve ``handler(request, loop)`` through ServerLoop; returns (server, port)."""

    async def on_connect(reader, writer):
        server.conn_tasks.append(asyncio.current_task())
        conn = H2Connection(Role.SERVER)
        holder = {}

        async def bound(request):
            return await handler(request, holder["loop"])

        holder["loop"] = ServerLoop(conn, reader, writer, bound)
        await holder["loop"].run()

    server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
    server.conn_tasks = []
    return server, server.sockets[0].getsockname()[1]


async def scripted_server(script):
    """A raw server engine; ``script(conn, event, writer, seen)`` reacts to
    each event and returns True to hang up. ``seen`` lists every event."""

    async def on_connect(reader, writer):
        server.conn_tasks.append(asyncio.current_task())
        conn = H2Connection(Role.SERVER)
        conn.initiate_connection()
        writer.write(conn.data_to_send())
        seen = []
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                for event in conn.receive_data(data):
                    seen.append(event)
                    if await script(conn, event, writer, seen):
                        return
                writer.write(conn.data_to_send())
                await writer.drain()
        finally:
            writer.close()

    server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
    server.conn_tasks = []
    return server, server.sockets[0].getsockname()[1]


async def stop(server):
    """Stop listening and let every connection handler finish."""
    server.close()
    if server.conn_tasks:
        await asyncio.wait(server.conn_tasks, timeout=TIMEOUT_S)


async def open_channel(port, **kwargs):
    return await H2Channel.open("127.0.0.1", port, H2Connection(Role.CLIENT), **kwargs)


def _requests(seen):
    return [e for e in seen if isinstance(e, RequestReceived)]


class TestRequests:
    def test_concurrent_requests_with_and_without_bodies(self):
        upload = bytes(range(256)) * 1024  # 256 KiB: several DATA frames

        async def echo(request, _loop):
            await asyncio.sleep(0.01 if request.path == "/slow" else 0)
            body = f"{request.method} {request.path} {len(request.body)}".encode()
            return MiniResponse(body=body, content_type="text/plain")

        async def scenario():
            server, port = await loop_server(echo)
            channel = await open_channel(port)
            try:
                return await asyncio.gather(
                    channel.request(_get("/slow")),
                    channel.request(_get("/upload", b"PUT"), upload),
                    channel.request(_get("/fast")),
                    channel.request(_get("/small", b"POST"), b"x"),
                )
            finally:
                await channel.close()
                await stop(server)

        slow, put, fast, post = run(scenario)
        assert [r.status for r in (slow, put, fast, post)] == [200] * 4
        assert bytes(slow.body) == b"GET /slow 0"
        assert bytes(put.body) == f"PUT /upload {len(upload)}".encode()
        assert bytes(fast.body) == b"GET /fast 0"
        assert bytes(post.body) == b"POST /small 1"
        # One connection, four streams.
        assert len({slow.stream_id, put.stream_id, fast.stream_id, post.stream_id}) == 4

    def test_pushed_streams_attach_to_their_parent(self):
        def push(path, data):
            request_headers = [(b":method", b"GET"), (b":path", path), (b":scheme", b"https"), (b":authority", b"t")]
            return request_headers, [(b":status", b"200")], data

        async def with_pushes(request, loop):
            pushes = [push(b"/a.png", b"A" * 40000), push(b"/b.png", b"B")] if request.path == "/page" else []
            loop.respond(request.stream_id, [(b":status", b"200")], b"page", pushes=pushes)

        async def scenario():
            server, port = await loop_server(with_pushes)
            channel = await open_channel(port)
            try:
                return await asyncio.gather(channel.request(_get("/page")), channel.request(_get("/other")))
            finally:
                await channel.close()
                await stop(server)

        page, other = run(scenario)
        assert bytes(page.body) == b"page"
        assert {p.path: bytes(p.body) for p in page.pushed} == {"/a.png": b"A" * 40000, "/b.png": b"B"}
        assert all(p.status == 200 for p in page.pushed)
        assert other.pushed == []

    def test_adaptive_window_grows_and_delivers_large_bodies(self):
        body = b"z" * (2 << 20)

        async def big(request, _loop):
            return MiniResponse(body=body, content_type="application/octet-stream")

        async def scenario():
            server, port = await loop_server(big)
            conn = H2Connection(Role.CLIENT, initial_window_size=16384)
            # A 1 ms RTT hint closes a rate interval every millisecond, so
            # loopback delivery rates register within one response.
            channel = await H2Channel.open("127.0.0.1", port, conn, adaptive_window=True, rtt_hint_s=0.001)
            try:
                response = await channel.request(_get("/big"))
                return response, channel.window, conn.local_settings.initial_window_size
            finally:
                await channel.close()
                await stop(server)

        response, window, final_window = run(scenario)
        assert bytes(response.body) == body
        assert window is not None and window.resizes >= 1
        assert final_window > 16384

    def test_fixed_window_replenishes_streams_larger_than_the_window(self):
        body = b"w" * 300_000

        async def big(request, _loop):
            return MiniResponse(body=body)

        async def scenario():
            server, port = await loop_server(big)
            conn = H2Connection(Role.CLIENT, initial_window_size=16384)
            channel = await H2Channel.open("127.0.0.1", port, conn)
            try:
                return await channel.request(_get("/big")), channel.window
            finally:
                await channel.close()
                await stop(server)

        response, window = run(scenario)
        assert window is None
        assert bytes(response.body) == body


class TestFailures:
    def test_close_fails_pending_requests(self):
        async def never(request, _loop):
            await asyncio.Event().wait()

        async def scenario():
            server, port = await loop_server(never)
            channel = await open_channel(port)
            pending = asyncio.ensure_future(channel.request(_get("/never")))
            await asyncio.sleep(0.1)
            await channel.close()
            try:
                with pytest.raises(ConnectionError):
                    await pending
                with pytest.raises(ConnectionError):
                    channel.send(_get("/late"))
            finally:
                await stop(server)

        run(scenario)

    def test_reset_fails_only_its_own_request(self):
        async def script(conn, event, writer, seen):
            requests = _requests(seen)
            if len(requests) == 2 and isinstance(event, RequestReceived):
                first, second = requests
                conn.reset_stream(first.stream_id, ErrorCode.CANCEL)
                conn.send_headers(second.stream_id, [(b":status", b"200")])
                conn.send_data(second.stream_id, b"sibling", end_stream=True)

        async def scenario():
            server, port = await scripted_server(script)
            channel = await open_channel(port)
            try:
                return await asyncio.gather(
                    channel.request(_get("/reset")), channel.request(_get("/ok")), return_exceptions=True
                )
            finally:
                await channel.close()
                await stop(server)

        reset, sibling = run(scenario)
        assert isinstance(reset, ConnectionError) and "reset" in str(reset)
        assert bytes(sibling.body) == b"sibling"

    def test_goaway_fails_streams_above_last_stream_id_and_finishes_the_rest(self):
        async def script(conn, event, writer, seen):
            requests = _requests(seen)
            if len(requests) == 2 and isinstance(event, RequestReceived):
                first = requests[0]
                writer.write(conn.data_to_send())
                writer.write(GoAwayFrame(last_stream_id=first.stream_id).serialize())
                conn.send_headers(first.stream_id, [(b":status", b"200")])
                conn.send_data(first.stream_id, b"processed", end_stream=True)

        async def scenario():
            server, port = await scripted_server(script)
            channel = await open_channel(port)
            try:
                results = await asyncio.gather(
                    channel.request(_get("/below")), channel.request(_get("/above")), return_exceptions=True
                )
                return results, channel.closed
            finally:
                await channel.close()
                await stop(server)

        (below, above), closed = run(scenario)
        assert bytes(below.body) == b"processed"
        assert isinstance(above, ConnectionError) and "GOAWAY" in str(above)
        # No new streams after GOAWAY: a caller must open a fresh channel.
        assert closed

    def test_streams_below_last_stream_id_fail_at_eof(self):
        async def script(conn, event, writer, seen):
            if isinstance(event, RequestReceived):
                writer.write(conn.data_to_send())
                writer.write(GoAwayFrame(last_stream_id=event.stream_id).serialize())
                conn.send_headers(event.stream_id, [(b":status", b"200")])
                conn.send_data(event.stream_id, b"partial")
                writer.write(conn.data_to_send())
                return True  # hang up mid-body

        async def scenario():
            server, port = await scripted_server(script)
            channel = await open_channel(port)
            try:
                with pytest.raises(ConnectionError):
                    await channel.request(_get("/cut"))
            finally:
                await channel.close()
                await stop(server)

        run(scenario)

    def test_cancelled_push_is_dropped_and_the_request_completes(self):
        async def script(conn, event, writer, seen):
            if isinstance(event, RequestReceived):
                sid = event.stream_id
                promised = conn.promise_stream(
                    sid,
                    [(b":method", b"GET"), (b":path", b"/gone.png"), (b":scheme", b"https"), (b":authority", b"t")],
                    [(b":status", b"200")],
                )
                writer.write(conn.data_to_send())
                writer.write(RstStreamFrame(stream_id=promised, error_code=ErrorCode.CANCEL).serialize())
                conn.send_data(sid, b"page", end_stream=True)

        async def scenario():
            server, port = await scripted_server(script)
            channel = await open_channel(port)
            try:
                return await channel.request(_get("/page"))
            finally:
                await channel.close()
                await stop(server)

        response = run(scenario)
        assert bytes(response.body) == b"page"
        assert response.pushed == []


class TestPeerDropsMidResponse:
    """A peer that hangs up after receiving the request must fail the
    fetch with ConnectionError, never leave it waiting."""

    @staticmethod
    async def _hang_up_server():
        async def script(conn, event, writer, seen):
            return isinstance(event, RequestReceived)

        return await scripted_server(script)

    def test_channel_request_raises(self):
        async def scenario():
            server, port = await self._hang_up_server()
            channel = await open_channel(port)
            try:
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(channel.request(_get("/")), TIMEOUT_S)
            finally:
                await channel.close()
                await stop(server)

        run(scenario)

    def test_fetch_tcp_raises(self):
        async def scenario():
            server, port = await self._hang_up_server()
            try:
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(
                        GenerativeClient(device=LAPTOP).fetch_tcp("127.0.0.1", port, "/news"), TIMEOUT_S
                    )
            finally:
                await stop(server)

        run(scenario)

    def test_admin_fetch_raises(self):
        async def scenario():
            server, port = await self._hang_up_server()
            try:
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(admin_fetch("127.0.0.1", port, "/healthz"), TIMEOUT_S)
            finally:
                await stop(server)

        run(scenario)


class TestRequestBodyCap:
    def test_unfinished_bodies_stay_under_the_cap(self, monkeypatch):
        """A peer streaming DATA without END_STREAM gets its stream reset
        once the connection holds MAX_REQUEST_BODY_BYTES; the server never
        buffers more, and the connection keeps serving."""
        cap = 64 * 1024
        monkeypatch.setattr(serverloop, "MAX_REQUEST_BODY_BYTES", cap)
        peaks = []
        served = []

        async def on_connect(reader, writer):
            server.conn_tasks.append(asyncio.current_task())

            async def handler(request):
                served.append(request.path)
                return MiniResponse(body=b"pong")

            loop = ServerLoop(H2Connection(Role.SERVER), reader, writer, handler)
            dispatch = loop._dispatch

            async def spy(event):
                await dispatch(event)
                peaks.append(loop.buffered)

            loop._dispatch = spy
            await loop.run()

        async def scenario():
            nonlocal server
            server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
            server.conn_tasks = []
            channel = await open_channel(server.sockets[0].getsockname()[1])
            try:
                await channel.handshake()
                flood = channel.conn.get_next_available_stream_id()
                channel.conn.send_headers(flood, _get("/flood", b"PUT"))
                for _ in range(32):  # 512 KiB, never ended
                    channel.conn.send_data(flood, b"f" * 16384)
                await channel.flush()
                # Frames are handled in order: once /ping is answered, every
                # flood frame before it went through the loop.
                ping = await channel.request(_get("/ping"))
                return ping, channel.conn.streams[flood].closed
            finally:
                await channel.close()
                await stop(server)

        server = None
        ping, flood_closed = run(scenario)
        assert bytes(ping.body) == b"pong"
        assert served == ["/ping"]
        assert flood_closed  # reset by the server
        assert max(peaks) <= cap
