"""The async HTTP/2 client channel: one TCP connection, many requests.

The generative client, the admin-plane fetch and the cache-tier facade
all reach a peer over TCP through this driver. It dials, settles the
settings exchange (paper §5.2) and resolves each request to a
:class:`ChannelResponse` with the streams pushed on it attached. A reset
fails its own request; a GOAWAY fails only the requests above its
``last_stream_id`` (RFC 9113 §6.8) and lets the rest finish; EOF, a
protocol error or :meth:`H2Channel.close` fails the rest. Every failure
is a :class:`ConnectionError` (a reset, :class:`StreamResetError`): no
request waits forever.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.http2.bdp import AdaptiveReceiveWindow, BdpEstimator
from repro.http2.connection import (
    ConnectionTerminated,
    DataReceived,
    GenAbilityNegotiated,
    H2Connection,
    PushPromiseReceived,
    ResponseReceived,
    SettingsAcknowledged,
    StreamEnded,
    StreamReset,
)
from repro.http2.errors import H2Error
from repro.http2.transport import AsyncH2Transport

HeaderList = list[tuple[bytes, bytes]]


class StreamResetError(ConnectionError):
    """The peer reset one request's stream; the channel itself lives on."""


@dataclass
class ChannelResponse:
    """One response stream as the channel received it."""

    stream_id: int
    #: The promised ``:path`` of a pushed stream ("" for requests).
    path: str = ""
    status: int = 0
    headers: HeaderList = field(default_factory=list)
    body: bytearray = field(default_factory=bytearray)
    #: Streams the server pushed on this request, in promise order.
    pushed: list["ChannelResponse"] = field(default_factory=list)


@dataclass
class _Request:
    response: ChannelResponse
    future: asyncio.Future
    #: Streams still receiving: the request itself plus each push.
    open: int = 1


class H2Channel:
    """A client connection; create one with :meth:`open`."""

    def __init__(
        self, conn: H2Connection, transport: AsyncH2Transport, adaptive_window: bool, rtt_hint_s: float
    ) -> None:
        self.conn = conn
        self.transport = transport
        #: The BDP tuner, when the channel autotunes its receive windows.
        self.window = None
        if adaptive_window:
            minimum = conn.local_settings.initial_window_size
            estimator = BdpEstimator(time.monotonic, rtt_s=rtt_hint_s, min_window=minimum)
            self.window = AdaptiveReceiveWindow(conn, estimator)
        self._handshake: set[type] = set()
        self._ready = asyncio.Event()
        #: Every receiving stream (request or push) → (its response, its request).
        self._streams: dict[int, tuple[ChannelResponse, _Request]] = {}
        self._goaway_last: int | None = None
        self._error: ConnectionError | None = None
        self._reader: asyncio.Task | None = None

    @classmethod
    async def open(
        cls, host: str, port: int, conn: H2Connection, adaptive_window: bool = False, rtt_hint_s: float = 0.05
    ) -> "H2Channel":
        """Dial, send the preface and start the read loop; the settings
        exchange completes in the background (see :meth:`handshake`)."""
        reader, writer = await asyncio.open_connection(host, port)
        channel = cls(conn, AsyncH2Transport(conn, reader, writer), adaptive_window, rtt_hint_s)
        conn.initiate_connection()
        channel._reader = asyncio.create_task(channel._read_loop())
        await channel.flush()
        return channel

    @property
    def closed(self) -> bool:
        """True once no new request can be sent (failed, closed, or GOAWAY)."""
        return self._error is not None or self._goaway_last is not None

    async def handshake(self) -> None:
        """Wait until the peer's SETTINGS arrived and ours were acknowledged."""
        await self._ready.wait()
        if self._error is not None:
            raise ConnectionError(f"handshake failed: {self._error}")

    def send(self, headers: HeaderList, body: bytes | None = None) -> asyncio.Future:
        """Queue one request's frames (:meth:`flush` writes them); returns
        the future of its :class:`ChannelResponse`."""
        if self.closed:
            raise ConnectionError(f"channel closed: {self._error or 'peer sent GOAWAY'}")
        stream_id = self.conn.get_next_available_stream_id()
        self.conn.send_headers(stream_id, headers, end_stream=body is None)
        if body is not None:
            self.conn.send_data(stream_id, body, end_stream=True)
        request = _Request(ChannelResponse(stream_id), asyncio.get_running_loop().create_future())
        self._streams[stream_id] = (request.response, request)
        return request.future

    async def flush(self) -> None:
        try:
            await self.transport.flush()
        except (ConnectionError, OSError) as exc:
            self._fail(ConnectionError(f"write failed: {exc}"))
            raise self._error from exc

    async def request(self, headers: HeaderList, body: bytes | None = None) -> ChannelResponse:
        """Send one request and wait for its whole response, pushes included."""
        await self.handshake()
        future = self.send(headers, body)
        await self.flush()
        return await future

    async def close(self) -> None:
        """Fail pending requests and close the socket."""
        self._fail(ConnectionError("channel closed"))
        await self.transport.close()
        if self._reader is not None:
            self._reader.cancel()
            try:
                await self._reader
            except asyncio.CancelledError:
                pass

    async def _read_loop(self) -> None:
        error = ConnectionError("connection closed by peer")
        try:
            await self.transport.run(self._on_event)
        except (H2Error, ConnectionError, OSError) as exc:
            error = ConnectionError(f"connection failed: {type(exc).__name__}: {exc}")
        finally:
            self._fail(error)
            await self.transport.close()

    async def _on_event(self, event) -> None:
        entry = self._streams.get(event.stream_id)
        if isinstance(event, DataReceived):
            if entry is not None:
                entry[0].body += event.data
            if event.flow_controlled_length > 0:
                self._replenish(event.stream_id, event.flow_controlled_length)
        elif isinstance(event, ResponseReceived) and entry is not None:
            entry[0].headers = event.headers
            entry[0].status = int(dict(event.headers).get(b":status", b"0"))
        elif isinstance(event, StreamEnded) and entry is not None:
            self._stream_done(event.stream_id)
        elif isinstance(event, PushPromiseReceived) and entry is not None:
            request = entry[1]
            path = dict(event.headers).get(b":path", b"").decode("utf-8", "replace")
            push = ChannelResponse(event.promised_stream_id, path=path)
            request.response.pushed.append(push)
            request.open += 1
            self._streams[push.stream_id] = (push, request)
        elif isinstance(event, StreamReset) and entry is not None:
            response, request = entry
            if response is request.response:
                error = f"stream {event.stream_id} reset by peer ({event.error_code.name})"
                self._fail_request(request, StreamResetError(error))
            else:  # a cancelled push: drop it, the request lives on
                request.response.pushed.remove(response)
                self._stream_done(event.stream_id)
        elif isinstance(event, (SettingsAcknowledged, GenAbilityNegotiated)):
            self._handshake.add(type(event))
            if len(self._handshake) == 2:
                self._ready.set()
        elif isinstance(event, ConnectionTerminated):
            # RFC 9113 §6.8: streams above last_stream_id were never
            # processed; the ones below may still complete.
            self._goaway_last = event.last_stream_id
            error = ConnectionError(f"stream not processed before GOAWAY ({event.error_code.name})")
            for response, request in list(self._streams.values()):
                if response is request.response and response.stream_id > event.last_stream_id:
                    self._fail_request(request, error)
        if self._goaway_last is not None and not self._streams:
            await self.transport.close()  # drained after GOAWAY: hang up

    def _replenish(self, stream_id: int, length: int) -> None:
        """Hand consumed credit back, so neither a long-lived connection
        nor a body larger than one stream window ever stalls the peer."""
        if self.window is not None:
            self.window.on_data(stream_id, length)
            return
        self.conn.increment_flow_control_window(length)
        stream = self.conn.streams.get(stream_id)
        if stream is not None and not stream.closed:
            self.conn.increment_flow_control_window(length, stream_id)

    def _stream_done(self, stream_id: int) -> None:
        request = self._streams.pop(stream_id)[1]
        request.open -= 1
        if request.open == 0 and not request.future.done():
            request.future.set_result(request.response)

    def _fail_request(self, request: _Request, error: ConnectionError) -> None:
        for response in (request.response, *request.response.pushed):
            self._streams.pop(response.stream_id, None)
        if not request.future.done():
            request.future.set_exception(error)

    def _fail(self, error: ConnectionError) -> None:
        """The channel is finished: fail every open request."""
        self._error = self._error or error
        self._ready.set()
        for _response, request in list(self._streams.values()):
            self._fail_request(request, self._error)
