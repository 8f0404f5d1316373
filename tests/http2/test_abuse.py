"""Abuse containment: MAX_CONCURRENT_STREAMS enforcement (REFUSED_STREAM),
rapid-reset accounting (CVE-2023-44487), and control-frame flood limits."""

from repro.http2.connection import (
    MAX_HEADER_BLOCK_BYTES,
    MAX_HEADER_LIST_BYTES,
    AbuseDetected,
    ConnectionTerminated,
    H2Connection,
    RequestReceived,
    Role,
    StreamRefused,
    StreamReset,
)
from repro.http2.errors import ErrorCode
from repro.http2.frames import ContinuationFrame, HeadersFrame, PingFrame, SettingsFrame
from repro.http2.hpack import encode_string
from repro.http2.settings import Setting
from repro.http2.transport import InMemoryTransportPair
from repro.obs import MetricsRegistry

REQUEST = [
    (b":method", b"GET"),
    (b":scheme", b"https"),
    (b":path", b"/page"),
    (b":authority", b"test"),
]


def make_pair(registry=None, **server_kwargs) -> InMemoryTransportPair:
    pair = InMemoryTransportPair(
        H2Connection(Role.CLIENT, gen_ability=True),
        H2Connection(Role.SERVER, gen_ability=True, registry=registry, **server_kwargs),
    )
    pair.handshake()
    return pair


def open_request(pair, path=b"/page", end_stream=True) -> int:
    headers = [(k, path if k == b":path" else v) for k, v in REQUEST]
    stream_id = pair.client.conn.get_next_available_stream_id()
    pair.client.conn.send_headers(stream_id, headers, end_stream=end_stream)
    pair.pump()
    return stream_id


class TestMaxConcurrentStreams:
    def test_limit_advertised_in_settings(self):
        pair = make_pair(max_concurrent_streams=2)
        assert pair.client.conn.peer_settings.max_concurrent_streams == 2

    def test_stream_over_limit_refused(self):
        registry = MetricsRegistry()
        pair = make_pair(registry=registry, max_concurrent_streams=2)
        first = open_request(pair, b"/a")
        second = open_request(pair, b"/b")
        third = open_request(pair, b"/c")

        refusals = [e for e in pair.server.events if isinstance(e, StreamRefused)]
        assert refusals == [StreamRefused(stream_id=third, reason="max-concurrent-streams")]
        # §8.7: REFUSED_STREAM promises no processing — no stream state,
        # no RequestReceived for the refused id.
        assert third not in pair.server.conn.streams
        served = {e.stream_id for e in pair.server.events if isinstance(e, RequestReceived)}
        assert served == {first, second}
        # The client's stream was reset with the retryable code.
        resets = [e for e in pair.client.events if isinstance(e, StreamReset)]
        assert resets and resets[0].error_code == ErrorCode.REFUSED_STREAM
        assert registry.value(
            "http2_refused_streams_total", layer="http2", operation="max-concurrent"
        ) == 1

    def test_closed_streams_free_their_slot(self):
        pair = make_pair(max_concurrent_streams=1)
        first = open_request(pair, b"/a")
        # Server answers and closes the first stream.
        pair.server.conn.send_headers(first, [(b":status", b"200")], end_stream=True)
        pair.pump()
        second = open_request(pair, b"/b")
        assert second in pair.server.conn.streams
        assert not any(isinstance(e, StreamRefused) for e in pair.server.events)

    def test_unlimited_by_default(self):
        pair = make_pair()
        for index in range(12):
            open_request(pair, f"/p{index}".encode())
        assert not any(isinstance(e, StreamRefused) for e in pair.server.events)


class TestRapidReset:
    def test_open_then_cancel_loop_trips_goaway(self):
        registry = MetricsRegistry()
        pair = make_pair(registry=registry, rapid_reset_limit=4)
        for index in range(4):
            stream_id = open_request(pair, f"/p{index}".encode(), end_stream=False)
            pair.client.conn.reset_stream(stream_id, ErrorCode.CANCEL)
            pair.pump()

        abuses = [e for e in pair.server.events if isinstance(e, AbuseDetected)]
        assert abuses == [AbuseDetected(kind="rapid-reset", count=4)]
        # GOAWAY with ENHANCE_YOUR_CALM reached the client.
        from repro.http2.connection import ConnectionTerminated

        terms = [e for e in pair.client.events if isinstance(e, ConnectionTerminated)]
        assert terms and terms[0].error_code == ErrorCode.ENHANCE_YOUR_CALM
        assert registry.value(
            "http2_rst_received_total", layer="http2", operation="CANCEL"
        ) == 4
        assert registry.value(
            "http2_goaway_sent_total", layer="http2", operation="ENHANCE_YOUR_CALM"
        ) == 1

    def test_reset_after_completion_is_not_rapid(self):
        """Cancelling a stream the server already answered is normal
        operation, not an attack; it must not count toward the limit."""
        pair = make_pair(rapid_reset_limit=3)
        for index in range(6):
            stream_id = open_request(pair, f"/p{index}".encode())
            pair.server.conn.send_headers(stream_id, [(b":status", b"200")], end_stream=True)
            pair.pump()
            pair.client.conn.reset_stream(stream_id, ErrorCode.CANCEL)
            pair.pump()
        assert not any(isinstance(e, AbuseDetected) for e in pair.server.events)

    def test_under_limit_no_goaway(self):
        pair = make_pair(rapid_reset_limit=10)
        for index in range(5):
            stream_id = open_request(pair, f"/p{index}".encode(), end_stream=False)
            pair.client.conn.reset_stream(stream_id, ErrorCode.CANCEL)
            pair.pump()
        assert not any(isinstance(e, AbuseDetected) for e in pair.server.events)


class TestControlFloods:
    def test_ping_flood_trips_enhance_your_calm(self):
        # The handshake's own SETTINGS already counted one control frame.
        pair = make_pair(control_flood_limit=8)
        baseline = pair.server.conn._control_frames
        events = []
        for index in range(8 - baseline):
            events += pair.server.conn.receive_data(
                PingFrame(data=index.to_bytes(8, "big")).serialize()
            )
        abuses = [e for e in events if isinstance(e, AbuseDetected)]
        assert abuses == [AbuseDetected(kind="ping-flood", count=8)]

    def test_settings_flood_trips_enhance_your_calm(self):
        pair = make_pair(control_flood_limit=6)
        events = []
        for _ in range(6):
            events += pair.server.conn.receive_data(
                SettingsFrame(settings={int(Setting.ENABLE_PUSH): 0}).serialize()
            )
        abuses = [e for e in events if isinstance(e, AbuseDetected)]
        assert abuses and abuses[0].kind == "settings-flood"

    def test_ping_acks_do_not_count(self):
        """Only ack-eliciting frames amplify; our own acked pings are free."""
        pair = make_pair(control_flood_limit=4)
        baseline = pair.server.conn._control_frames
        for _ in range(10):
            pair.server.conn.receive_data(PingFrame(data=b"\0" * 8, ack=True).serialize())
        assert pair.server.conn._control_frames == baseline

    def test_goaway_sent_once_for_sustained_abuse(self):
        pair = make_pair(control_flood_limit=3)
        for _ in range(9):
            pair.server.conn.receive_data(PingFrame(data=b"\0" * 8).serialize())
        pair.pump()
        terms = [e for e in pair.client.events if isinstance(e, ConnectionTerminated)]
        assert len(terms) == 1
        assert terms[0].debug_data == b"ping-flood"


class TestHeaderBlockLimits:
    """CONTINUATION floods (CVE-2024-27316 class) and HPACK blocks that
    decode to oversized header lists end in GOAWAY(ENHANCE_YOUR_CALM)
    with bounded memory."""

    @staticmethod
    def _buffered(conn) -> int:
        state = conn._expect_continuation
        return len(state[1]) if state is not None and state[1] is not None else 0

    @staticmethod
    def _goaway(pair):
        pair.pump()
        terms = [e for e in pair.client.events if isinstance(e, ConnectionTerminated)]
        assert len(terms) == 1
        return terms[0]

    def test_continuation_flood_is_cut_off_with_bounded_buffer(self):
        pair = make_pair()
        server = pair.server.conn
        fragment = b"\x00" * 16384
        events = server.receive_data(HeadersFrame(stream_id=1, header_block=b"", end_headers=False).serialize())
        peak = 0
        for _ in range(4096):  # 64 MiB of header block if nothing stops it
            events += server.receive_data(ContinuationFrame(stream_id=1, header_block=fragment).serialize())
            peak = max(peak, self._buffered(server))
        assert peak < 1 << 20
        assert peak <= MAX_HEADER_BLOCK_BYTES + len(fragment)
        abuses = [e for e in events if isinstance(e, AbuseDetected)]
        assert [a.kind for a in abuses] == ["header-block-size"]
        assert not any(isinstance(e, RequestReceived) for e in events)
        # The end of the oversized block is consumed without error.
        server.receive_data(ContinuationFrame(stream_id=1, header_block=fragment, end_headers=True).serialize())
        assert server._expect_continuation is None
        goaway = self._goaway(pair)
        assert goaway.error_code == ErrorCode.ENHANCE_YOUR_CALM
        assert goaway.debug_data == b"header-block-size"

    def test_header_list_over_the_cap_is_abuse(self):
        pair = make_pair()
        # One 4,000-byte field enters the dynamic table, then 100 one-byte
        # references to it: a ~4 KiB block decoding to ~400 KiB.
        block = (
            b"\x40"
            + encode_string(b"x-big", huffman=False)
            + encode_string(b"v" * 4000, huffman=False)
            + bytes([0x80 | 62]) * 100
        )
        assert len(block) < MAX_HEADER_LIST_BYTES
        events = pair.server.conn.receive_data(
            HeadersFrame(stream_id=1, header_block=block, end_stream=True).serialize()
        )
        abuses = [e for e in events if isinstance(e, AbuseDetected)]
        assert [a.kind for a in abuses] == ["header-list-size"]
        assert abuses[0].count > MAX_HEADER_LIST_BYTES
        assert not any(isinstance(e, RequestReceived) for e in events)
        assert self._goaway(pair).error_code == ErrorCode.ENHANCE_YOUR_CALM

    def test_blocks_under_the_caps_are_served(self):
        pair = make_pair()
        stream_id = pair.client.conn.get_next_available_stream_id()
        big = REQUEST + [(b"x-pad", b"p" * 60000)]
        pair.client.conn.send_headers(stream_id, big, end_stream=True)
        pair.pump()
        requests = [e for e in pair.server.events if isinstance(e, RequestReceived)]
        assert [r.headers for r in requests] == [big]
        assert not any(isinstance(e, AbuseDetected) for e in pair.server.events)
