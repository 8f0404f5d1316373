"""The server connection loop: one accepted HTTP/2 connection over TCP.

The generative server, the arbiter's cache tier and its admin plane all
run each connection through :class:`ServerLoop`. It collects a request's
headers and body until ``StreamEnded``, then awaits the handler as its own
task on the event loop; a writer task pumps the flow-control-aware
:class:`~repro.http2.writer.ConnectionWriter`, so a slow peer parks a
stream instead of the loop. On EOF the loop drains in-flight handlers and
queued bytes, then closes. Handlers are ``async (MiniRequest) ->
MiniResponse | None``: ``None`` means the handler answered through
:meth:`ServerLoop.respond` itself; one that raises becomes a 500.
"""

from __future__ import annotations

import asyncio
import logging
from collections.abc import Awaitable, Callable
from dataclasses import dataclass, field

from repro.http2.connection import (
    AbuseDetected,
    ConnectionTerminated,
    DataReceived,
    Event,
    H2Connection,
    PriorityUpdated,
    RemoteSettingsChanged,
    RequestReceived,
    Role,
    StreamEnded,
    StreamRefused,
    StreamReset,
    WindowUpdated,
)
from repro.http2.errors import ErrorCode, H2Error
from repro.http2.transport import AsyncH2Transport
from repro.http2.writer import ConnectionWriter

logger = logging.getLogger("repro.http2.serverloop")

HeaderList = list[tuple[bytes, bytes]]

#: Request body bytes one connection may hold before END_STREAM, summed
#: over its streams; the stream whose DATA would pass it is reset.
MAX_REQUEST_BODY_BYTES = 16 * 1024 * 1024


@dataclass
class MiniRequest:
    """One fully received request stream."""

    method: str
    path: str
    body: bytes
    stream_id: int
    #: The complete request header list, pseudo-headers included.
    headers: HeaderList = field(default_factory=list)


@dataclass
class MiniResponse:
    """What a handler returns; rendered to HEADERS + DATA."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    #: Extra response headers beyond status/content-type/length.
    headers: list[tuple[bytes, bytes]] = field(default_factory=list)

    def header_list(self) -> list[tuple[bytes, bytes]]:
        return [
            (b":status", str(self.status).encode()),
            (b"content-type", self.content_type.encode()),
            (b"content-length", str(len(self.body)).encode()),
            *self.headers,
        ]


class ServerLoop:
    """Drives one accepted server connection to completion.

    ``inline`` replaces request collection with a synchronous per-event
    callback (the serial-dispatch baseline); ``on_protocol_error`` hears of
    every non-clean peer GOAWAY and abuse verdict.
    """

    def __init__(
        self,
        conn: H2Connection,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        handler: Callable[[MiniRequest], Awaitable[MiniResponse | None]],
        registry=None,
        priorities_enabled: bool = True,
        inline: Callable[[Event], None] | None = None,
        on_protocol_error: Callable[[str], None] | None = None,
    ) -> None:
        self.conn = conn
        self.transport = AsyncH2Transport(conn, reader, writer)
        self.writer = ConnectionWriter(conn, registry=registry, priorities_enabled=priorities_enabled)
        self.handler = handler
        self.inline = inline
        self.on_protocol_error = on_protocol_error
        #: Handler tasks still running.
        self.tasks: set[asyncio.Task] = set()
        #: Set by a peer GOAWAY, abuse or a drain: new streams are ignored.
        self.draining = False
        #: Request streams still receiving, with their body so far.
        self._requests: dict[int, tuple[MiniRequest, bytearray]] = {}
        #: Body bytes held in ``_requests`` (at most MAX_REQUEST_BODY_BYTES).
        self.buffered = 0
        self._wakeup = asyncio.Event()

    async def run(self) -> None:
        """Serve the connection until the peer goes away, then drain."""
        writer_task = asyncio.create_task(self._writer_loop())
        try:
            self.conn.initiate_connection()
            await self.transport.flush()
            await self.transport.run(self._dispatch)
            await self.drain()
        except (ConnectionError, OSError):
            pass  # the peer went away; whatever is still queued is aborted
        finally:
            writer_task.cancel()
            await asyncio.gather(writer_task, return_exceptions=True)
            # A response still queued when the connection dies must not
            # leave its wide event open (a leaked ring entry).
            self.writer.abort_pending()
            await self.transport.close()

    def respond(self, stream_id: int, headers: HeaderList, body: bytes, event=None, pushes=()) -> None:
        """Send HEADERS, promise ``pushes`` (``(request_headers,
        response_headers, body)`` triples) and queue the bodies. The writer
        closes ``event`` (a wide event) when the last frame leaves."""
        if self.transport.closed.is_set():
            if event is not None:
                event.finish(error="connection-closed")
            return
        try:
            self.conn.send_headers(stream_id, headers)
            for request_headers, response_headers, data in pushes:
                promised_id = self.conn.promise_stream(stream_id, request_headers, response_headers)
                self.writer.enqueue(promised_id, data, end_stream=True)
            self.writer.enqueue(stream_id, body, end_stream=True, event=event)
        except H2Error as exc:
            logger.warning("stream %d closed under its response; dropping", stream_id)
            if event is not None:
                event.finish(error=type(exc).__name__)
            return
        self._wakeup.set()

    async def drain(self, timeout_s: float = 30.0) -> None:
        """Graceful close: finish in-flight streams, flush queued bytes."""
        self.draining = True
        pending = {task for task in self.tasks if not task.done()}
        if pending:
            _done, still_pending = await asyncio.wait(pending, timeout=timeout_s)
            for task in still_pending:
                task.cancel()
        # Give the writer a last chance to move whatever credit allows.
        await self._pump(asyncio.get_running_loop().time() + timeout_s)

    async def shutdown(self, timeout_s: float = 30.0) -> None:
        """Server-initiated graceful close: drain, then close the socket
        (which ends the read loop, so :meth:`run` returns)."""
        await self.drain(timeout_s)
        await self.transport.close()

    async def _dispatch(self, event: Event) -> None:
        if self.inline is not None:
            self.inline(event)
        elif isinstance(event, RequestReceived):
            if self.draining:
                logger.info("ignoring stream %d received after GOAWAY", event.stream_id)
                return
            fields = dict(event.headers)
            request = MiniRequest(
                method=fields.get(b":method", b"GET").decode("utf-8", "replace"),
                path=fields.get(b":path", b"/").decode("utf-8", "replace"),
                body=b"",
                stream_id=event.stream_id,
                headers=event.headers,
            )
            self._requests[event.stream_id] = (request, bytearray())
        elif isinstance(event, DataReceived):
            if event.stream_id in self._requests:
                if self.buffered + len(event.data) > MAX_REQUEST_BODY_BYTES:
                    logger.warning("stream %d: request bodies over the cap; resetting", event.stream_id)
                    self._forget(event.stream_id)
                    self.conn.reset_stream(event.stream_id, ErrorCode.ENHANCE_YOUR_CALM)
                else:
                    self._requests[event.stream_id][1].extend(event.data)
                    self.buffered += len(event.data)
            if event.flow_controlled_length > 0:
                # Request streams are one-shot, so their 16 MiB windows
                # suffice; the connection window must keep flowing (what it
                # lets in is held only up to MAX_REQUEST_BODY_BYTES).
                self.conn.increment_flow_control_window(event.flow_controlled_length)
        elif isinstance(event, StreamEnded):
            request = self._forget(event.stream_id)
            if request is not None:
                task = asyncio.create_task(self._serve(request))
                self.tasks.add(task)
                task.add_done_callback(self.tasks.discard)
        elif isinstance(event, StreamReset):
            self._forget(event.stream_id)

        if isinstance(event, (WindowUpdated, RemoteSettingsChanged, StreamReset)):
            # Fresh credit resumes parked streams; a reset stream's queue
            # is dropped on the writer's next round.
            self._wakeup.set()
        elif isinstance(event, PriorityUpdated):
            if self.writer.reprioritize(event.stream_id, event.urgency, event.incremental):
                self._wakeup.set()
        elif isinstance(event, ConnectionTerminated):
            self.draining = True
            self._wakeup.set()
            if event.error_code != 0 and self.on_protocol_error is not None:
                self.on_protocol_error(
                    f"connection terminated with GOAWAY error code {int(event.error_code)}"
                )
        elif isinstance(event, StreamRefused):
            logger.info("refused stream %d over MAX_CONCURRENT_STREAMS", event.stream_id)
        elif isinstance(event, AbuseDetected):
            # The engine already sent GOAWAY(ENHANCE_YOUR_CALM).
            logger.warning("abusive peer: %s (count %d)", event.kind, event.count)
            self.draining = True
            if self.on_protocol_error is not None:
                self.on_protocol_error(f"abuse detected: {event.kind} x{event.count}")

    def _forget(self, stream_id: int) -> MiniRequest | None:
        """Stop collecting ``stream_id``; returns its request, body filled in."""
        request, body = self._requests.pop(stream_id, (None, b""))
        self.buffered -= len(body)
        if request is not None:
            request.body = bytes(body)
        return request

    async def _serve(self, request: MiniRequest) -> None:
        try:
            response = await self.handler(request)
        except Exception:
            logger.exception("handler failed for %s %s", request.method, request.path)
            response = MiniResponse(status=500, body=b"handler error", content_type="text/plain")
        if response is not None:
            self.respond(request.stream_id, response.header_list(), response.body)

    async def _writer_loop(self) -> None:
        """Pump on every wake-up (new work or fresh credit)."""
        while not self.transport.closed.is_set():
            await self._wakeup.wait()
            self._wakeup.clear()
            if not await self._pump():
                return

    async def _pump(self, deadline: float | None = None) -> bool:
        """Write until the writer is idle, every queued stream is parked on
        flow control, or ``deadline`` passes; False once the socket died."""
        loop = asyncio.get_running_loop()
        try:
            while not self.writer.idle:
                wrote = self.writer.pump()
                await self.transport.flush()  # honours socket backpressure
                if wrote == 0 or (deadline is not None and loop.time() >= deadline):
                    break
            await self.transport.flush()
        except (ConnectionError, OSError):
            return False
        return True


async def serve(handler, sock=None, host: str = "127.0.0.1", port: int = 0, registry=None):
    """Listen (or adopt the pre-bound ``sock``) and run a plain
    :class:`ServerLoop` — no SWW negotiation — with ``handler`` on every
    accepted connection."""

    async def on_connect(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        conn = H2Connection(Role.SERVER, gen_ability=False, registry=registry)
        await ServerLoop(conn, reader, writer, handler).run()

    if sock is not None:
        return await asyncio.start_server(on_connect, sock=sock)
    return await asyncio.start_server(on_connect, host, port)
