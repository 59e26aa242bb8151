"""Tests for Table I initialisation and its corner cases."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import WiraConfig
from repro.core.initializer import (
    InitialParams,
    payload_to_wire_bytes,
)
from repro.core.schemes import (
    BASELINE,
    STATIC_10,
    WIRA,
    WIRA_FF,
    WIRA_HX,
    InitContext,
    make_policy,
)
from repro.core.transport_cookie import HxQos
from repro.quic import Connection, QuicConfig, Role
from repro.quic.config import MSS, STREAM_FRAME_OVERHEAD
from repro.simnet.engine import EventLoop
from repro.simnet.path import NetworkConditions, Path


CONFIG = WiraConfig(init_cwnd_exp=44_000, init_rtt_exp=0.080)
HX = HxQos(min_rtt=0.050, max_bw_bps=8_000_000.0, timestamp=0.0)  # BDP = 50 kB
FF = 66_000  # Fig 2(a)'s example first frame


def params(scheme, ff_size=FF, hx=HX, rtt=None):
    return make_policy(scheme).initial_params(
        InitContext(config=CONFIG, ff_size=ff_size, hx_qos=hx, measured_rtt=rtt)
    )


EXP_WIRE = payload_to_wire_bytes(44_000)
FF_WIRE = payload_to_wire_bytes(FF)


class TestTableOne:
    def test_baseline(self):
        p = params(BASELINE)
        assert p.cwnd_bytes == EXP_WIRE
        assert p.pacing_bps == pytest.approx(EXP_WIRE * 8 / 0.080)
        assert not p.used_ff_size and not p.used_hx_qos

    def test_static_10(self):
        p = params(STATIC_10)
        assert p.cwnd_bytes == 10 * 1280

    def test_wire_conversion_admits_payload(self):
        # The window for FF bytes of payload covers the packetised frame.
        assert FF_WIRE > FF
        assert FF_WIRE % 1280 == 0

    def test_wira_ff(self):
        p = params(WIRA_FF)
        assert p.cwnd_bytes == FF_WIRE
        assert p.pacing_bps == pytest.approx(FF_WIRE * 8 / 0.080)
        assert p.used_ff_size and not p.used_hx_qos

    def test_wira_hx(self):
        p = params(WIRA_HX)
        assert p.cwnd_bytes == HX.bdp_bytes
        assert p.pacing_bps == 8e6  # Eq. 2: init_pacing = MaxBW
        assert p.used_hx_qos and not p.used_ff_size

    def test_wira_takes_min_of_ff_and_bdp(self):
        p = params(WIRA)
        assert p.cwnd_bytes == min(FF_WIRE, HX.bdp_bytes)  # Eq. 3
        assert p.pacing_bps == 8e6
        assert p.used_ff_size and p.used_hx_qos

    def test_wira_small_ff_bounds_window(self):
        p = params(WIRA, ff_size=20_000)
        assert p.cwnd_bytes == payload_to_wire_bytes(20_000)  # FF wins the min


class TestMeasuredRttOneRtt:
    def test_baseline_pacing_uses_measured_rtt(self):
        p = params(BASELINE, rtt=0.040)
        assert p.pacing_bps == pytest.approx(EXP_WIRE * 8 / 0.040)

    def test_wira_bdp_uses_measured_rtt(self):
        # §VI: 1-RTT servers use the measured RTT for the BDP.
        p = params(WIRA, rtt=0.025)
        expected_bdp = int(8e6 * 0.025 / 8)
        assert p.cwnd_bytes == min(FF_WIRE, expected_bdp)

    def test_wira_hx_pacing_still_maxbw(self):
        p = params(WIRA_HX, rtt=0.025)
        assert p.pacing_bps == 8e6


class TestCornerCase1:
    """FF_Size not parsed yet: substitute init_cwnd_exp, recompute later."""

    def test_wira_ff_provisional(self):
        p = params(WIRA_FF, ff_size=None)
        assert p.cwnd_bytes == EXP_WIRE
        assert p.provisional

    def test_wira_provisional_still_respects_bdp(self):
        p = params(WIRA, ff_size=None)
        assert p.cwnd_bytes == min(EXP_WIRE, HX.bdp_bytes)
        assert p.provisional
        assert p.pacing_bps == 8e6

    def test_update_after_parse_completion(self):
        provisional = params(WIRA, ff_size=None)
        final = params(WIRA, ff_size=30_000)
        assert final.cwnd_bytes == payload_to_wire_bytes(30_000)
        assert not final.provisional
        assert provisional.cwnd_bytes != final.cwnd_bytes

    def test_baseline_never_provisional(self):
        assert not params(BASELINE, ff_size=None).provisional


class TestCornerCase2:
    """Stale/absent cookie: FF_Size-based fallback (§IV-C)."""

    def test_wira_falls_back_to_ff(self):
        p = params(WIRA, hx=None)
        assert p.cwnd_bytes == FF_WIRE
        assert p.pacing_bps == pytest.approx(FF_WIRE * 8 / CONFIG.init_rtt_exp)
        assert p.used_ff_size and not p.used_hx_qos

    def test_wira_hx_falls_back_to_baseline(self):
        p = params(WIRA_HX, hx=None)
        assert p.cwnd_bytes == EXP_WIRE
        assert not p.used_hx_qos

    def test_both_signals_missing(self):
        p = params(WIRA, ff_size=None, hx=None)
        assert p.cwnd_bytes == EXP_WIRE
        assert p.provisional


class TestSafetyBounds:
    def test_cwnd_floor_min_packets(self):
        # RFC 6928 floor: a tiny (or adversarial) FF_Size never
        # initializes the window below the standard 10-packet default.
        p = params(WIRA_FF, ff_size=100)
        assert p.cwnd_bytes == CONFIG.min_initial_cwnd_packets * 1280

    def test_cwnd_floor_zero_ff_size(self):
        p = params(WIRA_FF, ff_size=0)
        assert p.cwnd_bytes == CONFIG.min_initial_cwnd_packets * 1280

    def test_cwnd_ceiling(self):
        huge = HxQos(min_rtt=2.0, max_bw_bps=1e10, timestamp=0.0)
        p = params(WIRA_HX, hx=huge)
        assert p.cwnd_bytes == CONFIG.max_initial_cwnd_bytes

    def test_pacing_floor(self):
        slow = HxQos(min_rtt=0.05, max_bw_bps=1.0, timestamp=0.0)
        # max_bw below the floor gets clamped up.
        p = params(WIRA_HX, hx=slow)
        assert p.pacing_bps == CONFIG.min_initial_pacing_bps

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            InitialParams(0, 1.0, False, False, False)
        with pytest.raises(ValueError):
            InitialParams(1, 0.0, False, False, False)


class TestConfigValidation:
    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            WiraConfig(video_frame_threshold=0)

    def test_bad_sync_period(self):
        with pytest.raises(ValueError):
            WiraConfig(sync_period=0)

    def test_bad_exp_values(self):
        with pytest.raises(ValueError):
            WiraConfig(init_cwnd_exp=0)


@given(
    ff=st.integers(min_value=2_000, max_value=300_000),
    bw=st.floats(min_value=2e5, max_value=1e8),
    rtt=st.floats(min_value=0.005, max_value=0.5),
)
def test_wira_never_exceeds_either_signal_property(ff, bw, rtt):
    """Property: Wira's window is bounded by both FF_Size and the BDP."""
    hx = HxQos(min_rtt=rtt, max_bw_bps=bw, timestamp=0.0)
    p = params(WIRA, ff_size=ff, hx=hx)
    floor = CONFIG.min_initial_cwnd_packets * 1280
    assert p.cwnd_bytes <= max(floor, payload_to_wire_bytes(ff))
    assert p.cwnd_bytes <= max(floor, hx.bdp_bytes)
    assert p.pacing_bps >= CONFIG.min_initial_pacing_bps


#: Stream bytes one full packet carries.
CHUNK = MSS - STREAM_FRAME_OVERHEAD


def first_ack_finds_response_sent(payload_bytes):
    """Serve ``payload_bytes`` under a window of
    ``payload_to_wire_bytes(payload_bytes)`` and an ample pacing rate
    over a lossless 1 Gbps / 50 ms path; True when the server has no
    stream data left as the first ACK after the request arrives."""
    loop = EventLoop()
    path = Path(loop, NetworkConditions(bandwidth_bps=1e9, rtt=0.050), rng=random.Random(1))
    config = QuicConfig(initial_rtt=0.05)
    server = Connection(loop, Role.SERVER, path.send_to_client, config, rng=random.Random(2))
    client = Connection(loop, Role.CLIENT, path.send_to_server, config, rng=random.Random(3))
    path.deliver_to_server = server.datagram_received
    path.deliver_to_client = client.datagram_received
    left_at_first_ack = []

    def on_request(stream_id, data, fin):
        if fin:
            server.cc.set_initial_window(payload_to_wire_bytes(payload_bytes))
            server.cc.set_initial_pacing_rate(1e9)
            server.send_stream_data(stream_id, b"x" * payload_bytes, fin=True)

    recovery = server.loss_recovery
    process_ack = recovery.on_ack_received

    def on_ack_received(ack, now):
        if server.stats.data_packets_sent and not left_at_first_ack:
            left_at_first_ack.append(server._pending_stream is not None)
        return process_ack(ack, now)

    recovery.on_ack_received = on_ack_received
    server.on_stream_data = on_request
    client.start()
    client.send_stream_data(0, b"GET", fin=True)
    loop.run(max_events=100_000)
    return left_at_first_ack == [False]


@pytest.mark.parametrize(
    "payload_bytes",
    [k * CHUNK + d for k in (1, 2, 3, 10, 44, 89) for d in (-1, 0, 1)] + [1, 66_000],
)
def test_window_for_payload_admits_it_in_one_flight(payload_bytes):
    """``payload_to_wire_bytes`` promises the window it returns admits
    that much stream data in one flight: the packetiser must agree with
    the packet model, at and around every packet boundary."""
    assert first_ack_finds_response_sent(payload_bytes)
