"""Tests for the windowed filter and bandwidth sampler."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.quic.cc.bandwidth_sampler import BandwidthSampler
from repro.quic.cc.windowed_filter import WindowedFilter
from repro.quic.sent_packet import SentPacket


class TestWindowedFilter:
    def test_empty_filter(self):
        f = WindowedFilter(window=10.0)
        assert f.best is None

    def test_max_tracks_best(self):
        f = WindowedFilter(window=10.0, is_max=True)
        f.update(5.0, time=0)
        f.update(9.0, time=1)
        f.update(3.0, time=2)
        assert f.best == 9.0

    def test_min_tracks_best(self):
        f = WindowedFilter(window=10.0, is_max=False)
        f.update(5.0, time=0)
        f.update(2.0, time=1)
        f.update(7.0, time=2)
        assert f.best == 2.0

    def test_best_expires_out_of_window(self):
        f = WindowedFilter(window=5.0, is_max=True)
        f.update(100.0, time=0)
        for t in range(1, 12):
            f.update(10.0, time=float(t))
        assert f.best == 10.0

    def test_new_best_resets_window(self):
        f = WindowedFilter(window=5.0, is_max=True)
        f.update(10.0, time=0)
        f.update(50.0, time=3)
        assert f.best == 50.0

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            WindowedFilter(window=0)

    def test_dominated_sample_survives_best_expiry(self):
        """Regression: a dominated-on-arrival sample must become the
        estimate once the old best ages out of the window."""
        f = WindowedFilter(window=10.0, is_max=True)
        f.update(2.0, time=0.0)
        f.update(1.0, time=1.0)
        f.update(0.0, time=11.0)
        assert f.best == 1.0

    def test_min_filter_dominated_sample_survives_expiry(self):
        f = WindowedFilter(window=10.0, is_max=False)
        f.update(2.0, time=0.0)
        f.update(5.0, time=1.0)
        f.update(9.0, time=11.0)
        assert f.best == 5.0

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0, max_value=1e9), st.floats(min_value=0, max_value=100)),
            min_size=1,
            max_size=50,
        )
    )
    def test_estimate_never_below_recent_max_within_window(self, samples):
        """Property: the max filter is >= every sample in the window."""
        samples.sort(key=lambda s: s[1])
        f = WindowedFilter(window=10.0, is_max=True)
        for value, t in samples:
            f.update(value, t)
        last_t = samples[-1][1]
        in_window = [v for v, t in samples if last_t - t <= 10.0]
        assert f.best >= max(in_window) * (1 - 1e-12)


def make_packet(pn, t, size=1000):
    return SentPacket(packet_number=pn, sent_time=t, size=size, ack_eliciting=True, in_flight=True)


class TestBandwidthSampler:
    def test_single_packet_rate(self):
        sampler = BandwidthSampler()
        p = make_packet(0, t=0.0, size=1000)
        sampler.on_packet_sent(p, bytes_in_flight=0, now=0.0)
        bandwidth = sampler.on_packet_acked(p, now=0.1)
        # 1000 bytes over 0.1s = 80kbps
        assert bandwidth == pytest.approx(80_000.0)

    def test_steady_pipe_rate_reflects_delivery(self):
        """In a full pipe (sends and acks interleaved), samples converge
        to the bottleneck rate: 1000 B every 10 ms = 800 kbps."""
        sampler = BandwidthSampler()
        spacing, rtt = 0.01, 0.1
        events = []
        for i in range(40):
            events.append((i * spacing, 0, i))
            events.append((i * spacing + rtt, 1, i))
        events.sort()
        packets, in_flight, bandwidth = {}, 0, None
        for t, kind, i in events:
            if kind == 0:
                p = make_packet(i, t=t, size=1000)
                sampler.on_packet_sent(p, bytes_in_flight=in_flight, now=t)
                packets[i] = p
                in_flight += 1000
            else:
                in_flight -= 1000
                bandwidth = sampler.on_packet_acked(packets[i], now=t)
        assert bandwidth == pytest.approx(800_000.0, rel=0.05)

    def test_app_limited_flag_propagates(self):
        sampler = BandwidthSampler()
        sampler.on_app_limited(0)
        p = make_packet(0, t=0.0)
        sampler.on_packet_sent(p, bytes_in_flight=0, now=0.0)
        assert p.is_app_limited
        # The sample's flag is the packet's: the sampler leaves it set.
        assert sampler.on_packet_acked(p, now=0.1) is not None
        assert p.is_app_limited

    def test_app_limited_clears_after_delivery(self):
        sampler = BandwidthSampler()
        p0 = make_packet(0, t=0.0)
        sampler.on_packet_sent(p0, bytes_in_flight=0, now=0.0)
        sampler.on_app_limited(1000)
        assert sampler.is_app_limited
        sampler.on_packet_acked(p0, now=0.1)
        assert not sampler.is_app_limited

    def test_idle_restart_resets_clock(self):
        sampler = BandwidthSampler()
        p0 = make_packet(0, t=0.0)
        sampler.on_packet_sent(p0, bytes_in_flight=0, now=0.0)
        sampler.on_packet_acked(p0, now=0.05)
        # Long idle, then restart: the sample must not span the idle gap.
        p1 = make_packet(1, t=10.0)
        sampler.on_packet_sent(p1, bytes_in_flight=0, now=10.0)
        bandwidth = sampler.on_packet_acked(p1, now=10.05)
        assert bandwidth == pytest.approx(1000 * 8 / 0.05, rel=0.01)

    def test_rtt_in_sample(self):
        sampler = BandwidthSampler()
        p = make_packet(0, t=1.0)
        sampler.on_packet_sent(p, bytes_in_flight=0, now=1.0)
        # A lone packet's interval is its round trip.
        bandwidth = sampler.on_packet_acked(p, now=1.08)
        assert bandwidth == pytest.approx(1000 * 8 / 0.08)
