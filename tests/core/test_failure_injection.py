"""Failure injection: the parser and cookie path under hostile input.

§VII argues Wira degrades gracefully: bad cookies are rejected (falling
back to corner case 2), and the parser never mis-accounts FF_Size on
malformed or truncated streams.
"""

import pytest

from repro.cdn.origin import Origin
from repro.cdn.session import SessionSpec, StreamingSession
from repro.core.cookie_crypto import CookieError, CookieSealer
from repro.core.frame_perception import FrameParser
from repro.core.parser_backends import UnknownProtocolError
from repro.core.schemes import BASELINE, WIRA
from repro.core.transport_cookie import (
    ClientCookieStore,
    HxQos,
    ServerCookieManager,
    decode_hqst,
    encode_hqst,
)
from repro.media import flv
from repro.media.frames import MediaFrame, MediaFrameType
from repro.media.source import StreamProfile
from repro.simnet.path import NetworkConditions

KEY = b"failure-injection-key-32-bytes!!"
TESTBED = NetworkConditions(bandwidth_bps=8e6, rtt=0.05, loss_rate=0.0, buffer_bytes=50_000)


def ff_bundle():
    return [
        MediaFrame.synthetic(MediaFrameType.SCRIPT, 0, 400),
        MediaFrame.synthetic(MediaFrameType.AUDIO, 0, 372),
        MediaFrame.synthetic(MediaFrameType.VIDEO_I, 0, 30_000),
    ]


class TestParserHostileInput:
    def test_truncated_stream_never_reports_ff(self):
        blob = flv.mux(ff_bundle())
        parser = FrameParser()
        # Everything except the last byte of the I-frame tag.
        assert parser.feed(blob[:-5]) is None
        assert not parser.ff_complete
        # The missing bytes arrive; the total is still exact.
        assert parser.feed(blob[-5:]) == len(blob)

    def test_flv_with_corrupted_tag_type_raises(self):
        blob = bytearray(flv.mux(ff_bundle()))
        blob[13] = 99  # first tag's type byte
        parser = FrameParser()
        with pytest.raises(Exception):
            parser.feed(bytes(blob))

    def test_flv_with_corrupted_previous_tag_size_raises(self):
        frames = ff_bundle()
        blob = bytearray(flv.mux(frames))
        # Flip a byte inside the first PreviousTagSize trailer.
        first_tag_len = 11 + len(frames[0].payload) + 4
        blob[13 + first_tag_len - 2] ^= 0xFF
        parser = FrameParser()
        with pytest.raises(Exception):
            parser.feed(bytes(blob))

    def test_unknown_protocol_rejected_per_algorithm_1(self):
        parser = FrameParser()
        with pytest.raises(UnknownProtocolError):
            parser.feed(b"\x00\x00\x00\x18ftypmp42")  # an MP4, not live

    def test_garbage_after_completion_is_ignored(self):
        blob = flv.mux(ff_bundle())
        parser = FrameParser()
        ff = parser.feed(blob)
        assert parser.feed(b"\xde\xad\xbe\xef" * 100) == ff


class TestCookieHostileInput:
    def test_bit_flips_every_position_rejected(self):
        sealer = CookieSealer(KEY)
        blob = sealer.seal(b"qos-payload", nonce_seed=5)
        for i in range(0, len(blob), 3):
            corrupted = bytearray(blob)
            corrupted[i] ^= 0x01
            with pytest.raises(CookieError):
                sealer.open(bytes(corrupted))

    def test_replayed_cookie_is_accepted_but_staleness_bounds_damage(self):
        """Replay is allowed by design (it is the client's own history);
        the Δ window bounds how stale a replay can be."""
        manager = ServerCookieManager(KEY, staleness_delta=3600.0)
        frame = manager.build_frame(HxQos(0.05, 8e6, timestamp=100.0))
        sealed = frame.decoded_metrics()["sealed"]
        assert manager.open_echoed(sealed, now=200.0) is not None
        assert manager.open_echoed(sealed, now=200.0) is not None  # replay
        assert manager.open_echoed(sealed, now=100.0 + 3601.0) is None

    def test_hqst_with_garbage_length_field(self):
        bad = bytes([0x01, 0xC0])  # Bool=1, truncated 8-byte varint
        with pytest.raises(CookieError):
            decode_hqst(bad)

    def test_session_with_fabricated_cookie_falls_back(self):
        """A client echoing a forged cookie gets corner-case treatment,
        not preferential bandwidth."""
        origin = Origin()
        origin.add_stream("s", StreamProfile(first_frame_target_bytes=40_000, seed=1))
        store = ClientCookieStore()
        # Adversarial client plants a fabricated "1 Gbps" cookie.
        fake = HxQos(min_rtt=0.001, max_bw_bps=1e9, timestamp=1e12).encode()
        store.update("origin", b"\x00" * 12 + fake + b"\x00" * 16, received_at=0.0)
        session = StreamingSession(
            SessionSpec(TESTBED, WIRA, seed=3), origin, "s", cookie_store=store
        )
        result = session.run()
        assert result.completed
        assert not result.used_cookie  # rejected by the MAC
        assert result.initial_params.used_ff_size  # corner case 2
        assert result.initial_params.pacing_bps < 5e7


class TestSessionRobustness:
    def test_session_times_out_gracefully_on_dead_path(self):
        """A path that loses (almost) everything must not hang the run."""
        dead = NetworkConditions(
            bandwidth_bps=1e6, rtt=0.05, loss_rate=0.95, buffer_bytes=20_000,
            reverse_loss_rate=0.95,
        )
        origin = Origin()
        origin.add_stream("s", StreamProfile(first_frame_target_bytes=20_000, seed=2))
        session = StreamingSession(
            SessionSpec(dead, BASELINE, seed=4, timeout=3.0), origin, "s"
        )
        result = session.run()
        assert not result.completed
        assert result.ffct is None

    def test_unsupported_client_session_still_works(self):
        origin = Origin()
        origin.add_stream("s", StreamProfile(first_frame_target_bytes=30_000, seed=3))
        session = StreamingSession(
            SessionSpec(TESTBED, WIRA, client_supports_cookies=False, seed=5),
            origin,
            "s",
        )
        result = session.run()
        assert result.completed
        assert not result.cookie_delivered
