"""Tests for the CUBIC baseline controller."""

import pytest

from repro.quic.cc import make_controller
from repro.quic.cc.cubic import CubicSender
from repro.quic.config import MSS
from repro.quic.rtt import RttEstimator
from repro.quic.sent_packet import SentPacket


def packet(pn, t=0.0, size=MSS):
    return SentPacket(pn, t, size, True, True)


@pytest.fixture(params=[CubicSender])
def sender(request):
    return request.param(rtt=RttEstimator(initial_rtt=0.05))


def test_registry_contains_all_controllers():
    for name in ("bbr", "bbrv2", "cubic"):
        controller = make_controller(name, RttEstimator(initial_rtt=0.05))
        assert controller.congestion_window > 0
    with pytest.raises(ValueError):
        make_controller("vegas", RttEstimator(initial_rtt=0.05))


def test_slow_start_doubles_per_round(sender):
    assert sender.in_slow_start
    cwnd0 = sender.congestion_window
    acked = [packet(i) for i in range(10)]
    for p in acked:
        sender.on_packet_sent(p, 0, 0.0)
    sender.on_packets_acked(acked, 0, 0.05)
    assert sender.congestion_window == cwnd0 + 10 * MSS


def test_loss_multiplicatively_decreases(sender):
    for i in range(10):
        sender.on_packet_sent(packet(i), i * MSS, 0.0)
    cwnd0 = sender.congestion_window
    sender.on_packets_lost([packet(5)], 9 * MSS, 0.1)
    assert sender.congestion_window < cwnd0
    assert not sender.in_slow_start


def test_single_reduction_per_loss_episode(sender):
    for i in range(10):
        sender.on_packet_sent(packet(i), i * MSS, 0.0)
    sender.on_packets_lost([packet(5)], 9 * MSS, 0.1)
    cwnd_after = sender.congestion_window
    # A second loss from the same flight must not reduce again.
    sender.on_packets_lost([packet(6)], 8 * MSS, 0.11)
    assert sender.congestion_window == cwnd_after


def test_acks_during_recovery_do_not_grow_window(sender):
    for i in range(10):
        sender.on_packet_sent(packet(i), i * MSS, 0.0)
    sender.on_packets_lost([packet(5)], 9 * MSS, 0.1)
    cwnd_after = sender.congestion_window
    sender.on_packets_acked([packet(7)], 8 * MSS, 0.12)
    assert sender.congestion_window == cwnd_after


def test_wira_initial_window_override(sender):
    sender.set_initial_window(66_000)
    assert sender.congestion_window == 66_000


def test_wira_initial_pacing_until_first_rtt_sample(sender):
    sender.set_initial_pacing_rate(8e6)
    assert sender.pacing_rate_bps == 8e6
    sender.rtt.update(0.05, now=0.0)
    # After a real sample the controller paces off cwnd/RTT again.
    assert sender.pacing_rate_bps != 8e6


def test_cubic_grows_after_recovery():
    cubic = CubicSender(rtt=RttEstimator(initial_rtt=0.05))
    cubic.rtt.update(0.05, now=0.0)
    for i in range(10):
        cubic.on_packet_sent(packet(i), i * MSS, 0.0)
    cubic.on_packets_lost([packet(5)], 9 * MSS, 0.1)
    cwnd_after_loss = cubic.congestion_window
    # Feed acks of packets sent after recovery over several seconds.
    pn, now = 100, 0.2
    for _ in range(200):
        p = packet(pn, now)
        cubic.on_packet_sent(p, 0, now)
        cubic.on_packets_acked([p], 0, now + 0.05)
        pn += 1
        now += 0.05
    assert cubic.congestion_window > cwnd_after_loss


def test_pacing_rate_positive_always(sender):
    assert sender.pacing_rate_bps > 0
    sender.on_packets_lost([packet(0)], 0, 0.1)
    assert sender.pacing_rate_bps > 0
