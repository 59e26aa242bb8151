"""Unit-level tests for the proxy server and player client."""

import random

import pytest

from repro.cdn.client import ClientMetrics, WiraClient
from repro.cdn.origin import Origin
from repro.cdn.playback import PlaybackPolicy
from repro.cdn.server import WiraServer
from repro.core.config import WiraConfig
from repro.core.schemes import WIRA, WIRA_FF
from repro.core.transport_cookie import (
    ClientCookieStore,
    HxQos,
    ServerCookieManager,
)
from repro.media.source import StreamProfile
from repro.quic.config import QuicConfig
from repro.quic.connection import Connection, Role
from repro.quic.handshake import TAG_HQST
from repro.simnet.engine import EventLoop
from repro.simnet.link import Datagram
from repro.simnet.path import NetworkConditions, Path

KEY = b"unit-test-cookie-key-32-bytes!!!"


def make_stack(scheme=WIRA, wira_config=None, origin=None, tags=None):
    loop = EventLoop()
    cond = NetworkConditions(bandwidth_bps=8e6, rtt=0.05, buffer_bytes=100_000)
    path = Path(loop, cond, rng=random.Random(1))
    server_conn = Connection(loop, Role.SERVER, path.send_to_client, QuicConfig(),
                             rng=random.Random(2))
    client_conn = Connection(loop, Role.CLIENT, path.send_to_server, QuicConfig(),
                             handshake_tags=tags, rng=random.Random(3))
    path.deliver_to_server = server_conn.datagram_received
    path.deliver_to_client = client_conn.datagram_received
    if origin is None:
        origin = Origin()
        origin.add_stream("demo", StreamProfile(first_frame_target_bytes=40_000, seed=4))
    server = WiraServer(
        loop, server_conn, origin, scheme,
        wira_config=wira_config,
        cookie_manager=ServerCookieManager(KEY),
    )
    return loop, path, server, server_conn, client_conn


class TestRequestParsing:
    @pytest.mark.parametrize(
        "request_line,expected",
        [
            ("GET /live/abc.flv", "abc"),
            ("GET /live/abc", "abc"),
            ("GET /live/with-dash.flv HTTP/1.1", "with-dash"),
        ],
    )
    def test_valid_requests(self, request_line, expected):
        assert WiraServer._parse_request(request_line) == expected

    @pytest.mark.parametrize(
        "request_line",
        ["POST /live/abc", "GET /static/abc", "GET", "", "GET /live/"],
    )
    def test_invalid_requests(self, request_line):
        assert WiraServer._parse_request(request_line) is None


class TestServerInit:
    def test_server_applies_initial_params_before_data(self):
        loop, path, server, server_conn, client_conn = make_stack(WIRA_FF)
        received = []
        client_conn.on_stream_data = lambda sid, d, fin: received.append(len(d))
        client_conn.start()
        client_conn.send_stream_data(0, b"GET /live/demo.flv\r\n", fin=True)
        loop.run(max_events=50_000)
        assert server.state.initial_params is not None
        assert server.state.initial_params.used_ff_size
        assert sum(received) > 40_000

    def test_unknown_hqst_tag_tolerated(self):
        loop, path, server, server_conn, client_conn = make_stack(
            WIRA, tags={TAG_HQST: b"\xff\xff\xff"}
        )
        client_conn.start()
        client_conn.send_stream_data(0, b"GET /live/demo.flv\r\n", fin=True)
        loop.run(max_events=50_000)
        # Garbage tag falls back to no-cookie initialisation.
        assert server.state.hx_qos is None
        assert server.state.initial_params is not None

    def test_sync_timer_pushes_cookies_periodically(self):
        config = WiraConfig(sync_period=0.2)
        loop, path, server, server_conn, client_conn = make_stack(
            WIRA, wira_config=config
        )
        cookies = []
        client_conn.on_hx_qos = cookies.append
        client_conn.start()
        client_conn.send_stream_data(0, b"GET /live/demo.flv\r\n", fin=True)
        loop.run_until(1.5, max_events=100_000)
        assert len(cookies) >= 3  # several sync periods elapsed

    def test_close_stops_sync_timer(self):
        loop, path, server, server_conn, client_conn = make_stack()
        client_conn.start()
        loop.run(max_events=1_000)
        server.close()
        pending_before = loop.pending_events
        loop.run_until(loop.now + 30.0)
        assert loop.processed_events >= 0  # drained without new syncs

    def test_flush_cookie_requires_measurements(self):
        loop, path, server, server_conn, client_conn = make_stack()
        assert not server.flush_cookie()  # nothing measured yet


class TestClientMetrics:
    def test_ffct_none_until_first_frame(self):
        metrics = ClientMetrics(request_sent_at=1.0)
        assert metrics.ffct is None
        metrics.first_frame_at = 1.2
        assert metrics.ffct == pytest.approx(0.2)

    def test_frame_completion_times(self):
        metrics = ClientMetrics(request_sent_at=1.0, video_frame_times=[1.1, 1.3])
        assert metrics.frame_completion_time(1) == pytest.approx(0.1)
        assert metrics.frame_completion_time(2) == pytest.approx(0.3)
        assert metrics.frame_completion_time(3) is None
        assert metrics.frame_completion_time(0) is None

    def test_hqst_tag_without_store(self):
        tag = WiraClient.build_hqst_tag(None, "origin")
        assert tag == b"\x01"

    def test_hqst_tag_unsupported(self):
        tag = WiraClient.build_hqst_tag(ClientCookieStore(), "origin", supported=False)
        assert tag == b"\x00"

    def test_hqst_tag_echoes_stored_cookie(self):
        store = ClientCookieStore()
        store.update("origin", b"sealed-blob", received_at=12.0)
        tag = WiraClient.build_hqst_tag(store, "origin")
        assert b"sealed-blob" in tag

    def test_target_frames_raised_to_playback_threshold(self):
        loop = EventLoop()
        conn = Connection(loop, Role.CLIENT, lambda d: True)
        client = WiraClient(
            loop, conn, "demo",
            playback=PlaybackPolicy(video_frames_required=5),
            target_video_frames=2,
        )
        assert client.target_video_frames == 5

    def test_invalid_target_rejected(self):
        loop = EventLoop()
        conn = Connection(loop, Role.CLIENT, lambda d: True)
        with pytest.raises(ValueError):
            WiraClient(loop, conn, "demo", target_video_frames=0)
