"""Tests for BBRv1, focusing on the behaviours Wira relies on."""

import pytest

from repro.quic.cc.bbr import (
    BbrMode,
    BbrSender,
    DRAIN_GAIN,
    HIGH_GAIN,
    PACING_GAIN_CYCLE,
)
from repro.quic.rtt import RttEstimator
from repro.quic.sent_packet import SentPacket


MSS = 1252


def make_bbr(**kwargs):
    return BbrSender(rtt=RttEstimator(initial_rtt=0.05), mss=MSS, **kwargs)


def drive(bbr, rounds, bw_bps=8e6, rtt=0.05, start_pn=0, start_time=0.0):
    """Feed the controller a steady full pipe for ``rounds`` round trips.

    Packets depart spaced at the bottleneck rate and each is acked one
    RTT later; send and ack events interleave in time order, as they
    would on a real path, so delivery-rate samples converge to the
    configured bandwidth.
    """
    spacing = MSS * 8 / bw_bps
    per_round = max(8, int(bw_bps * rtt / 8 / MSS) + 1)
    n = rounds * per_round
    events = []
    for i in range(n):
        send_t = start_time + i * spacing
        events.append((send_t, 0, i))  # 0 = send
        events.append((send_t + rtt, 1, i))  # 1 = ack
    events.sort()
    packets = {}
    in_flight = 0
    for t, kind, i in events:
        if kind == 0:
            p = SentPacket(start_pn + i, t, MSS, True, True)
            bbr.on_packet_sent(p, in_flight, t)
            in_flight += MSS
            packets[i] = p
        else:
            in_flight -= MSS
            bbr.on_packets_acked([packets[i]], in_flight, t)
    return start_pn + n, start_time + n * spacing + rtt


def test_starts_in_startup_with_high_gain():
    bbr = make_bbr()
    assert bbr.mode == BbrMode.STARTUP
    assert bbr.pacing_gain == HIGH_GAIN


def test_default_initial_window_is_10_packets():
    bbr = make_bbr()
    assert bbr.congestion_window == 10 * MSS


def test_wira_initial_window_override():
    bbr = make_bbr()
    bbr.set_initial_window(66_000)  # FF_Size from Fig 2(a)
    assert bbr.congestion_window == 66_000


def test_wira_initial_window_floor_is_one_mss():
    bbr = make_bbr()
    bbr.set_initial_window(10)
    assert bbr.congestion_window == MSS


def test_wira_initial_pacing_override_holds_until_samples():
    bbr = make_bbr()
    bbr.set_initial_pacing_rate(8e6)  # MaxBW from the transport cookie
    assert bbr.pacing_rate_bps == 8e6


def test_default_cold_start_pacing_uses_high_gain():
    bbr = make_bbr()
    expected = HIGH_GAIN * 10 * MSS * 8 / 0.05
    assert bbr.pacing_rate_bps == pytest.approx(expected)


def test_pacing_follows_measured_bandwidth_after_samples():
    bbr = make_bbr()
    bbr.set_initial_pacing_rate(1e6)
    drive(bbr, rounds=2, bw_bps=8e6)
    bw = bbr.bandwidth_estimate()
    assert bw is not None
    assert bbr.pacing_rate_bps == pytest.approx(bbr.pacing_gain * bw)


def test_bandwidth_estimate_converges_to_path_rate():
    bbr = make_bbr()
    drive(bbr, rounds=6, bw_bps=8e6)
    assert bbr.bandwidth_estimate() == pytest.approx(8e6, rel=0.3)


def test_startup_exits_after_three_flat_rounds():
    bbr = make_bbr()
    drive(bbr, rounds=10, bw_bps=8e6)
    assert bbr.full_bandwidth_reached
    assert bbr.mode in (BbrMode.DRAIN, BbrMode.PROBE_BW)


def test_drain_uses_inverse_gain():
    bbr = make_bbr()
    pn, now = drive(bbr, rounds=10, bw_bps=8e6)
    if bbr.mode == BbrMode.DRAIN:
        assert bbr.pacing_gain == pytest.approx(DRAIN_GAIN)


def test_probe_bw_reached_and_cycles_gain():
    bbr = make_bbr()
    drive(bbr, rounds=20, bw_bps=8e6)
    assert bbr.mode == BbrMode.PROBE_BW
    assert bbr.pacing_gain in PACING_GAIN_CYCLE


def test_cwnd_tracks_bdp_in_probe_bw():
    bbr = make_bbr()
    drive(bbr, rounds=20, bw_bps=8e6, rtt=0.05)
    bdp = bbr.bandwidth_estimate() * 0.05 / 8
    assert bbr.congestion_window == pytest.approx(2.0 * bdp, rel=0.5)


def test_loss_enters_conservation_recovery():
    bbr = make_bbr()
    pn, now = drive(bbr, rounds=5, bw_bps=8e6)
    cwnd_before = bbr.congestion_window
    lost = SentPacket(pn - 1, now, MSS, True, True)
    bbr.on_packets_lost([lost], bytes_in_flight=5 * MSS, now=now)
    assert bbr.congestion_window <= max(cwnd_before, 5 * MSS + bbr._min_cwnd)


def test_recovery_exits_on_ack_of_later_packet():
    bbr = make_bbr()
    pn, now = drive(bbr, rounds=5, bw_bps=8e6)
    lost = SentPacket(pn, now, MSS, True, True)
    bbr.on_packet_sent(lost, 0, now)
    bbr.on_packets_lost([lost], bytes_in_flight=MSS, now=now)
    assert bbr._recovery_window is not None
    newer = SentPacket(pn + 1, now + 0.01, MSS, True, True)
    bbr.on_packet_sent(newer, MSS, now + 0.01)
    bbr.on_packets_acked([newer], 0, now + 0.06)
    assert bbr._recovery_window is None


def test_app_limited_samples_do_not_shrink_estimate():
    bbr = make_bbr()
    drive(bbr, rounds=5, bw_bps=8e6)
    bw_before = bbr.bandwidth_estimate()
    # Now send a trickle (app-limited): one packet per RTT.
    pn, now = 1000, 10.0
    for _ in range(5):
        p = SentPacket(pn, now, MSS, True, True)
        bbr.on_packet_sent(p, 0, now)
        bbr.on_app_limited(MSS)
        bbr.on_packets_acked([p], 0, now + 0.05)
        pn += 1
        now += 0.05
    assert bbr.bandwidth_estimate() >= bw_before * 0.5


def test_can_send_respects_cwnd():
    """The sender may send while bytes in flight are below the window."""
    bbr = make_bbr()
    bbr.set_initial_window(5 * MSS)
    assert 4 * MSS < bbr.congestion_window
    assert not 5 * MSS < bbr.congestion_window
