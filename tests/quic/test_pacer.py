"""Tests for the token-bucket pacer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quic.pacer import Pacer


def test_burst_goes_immediately():
    pacer = Pacer(rate_bps=8_000.0, burst_bytes=3_000)
    assert pacer.time_until_send(3_000, now=0.0) == 0.0


def test_rate_limits_after_burst():
    pacer = Pacer(rate_bps=8_000.0, burst_bytes=1_000)  # 1000 B/s
    pacer.on_packet_sent(1_000, now=0.0)
    # Bucket empty; next 500B packet needs 0.5s of credit.
    assert pacer.time_until_send(500, now=0.0) == pytest.approx(0.5)


def test_tokens_refill_over_time():
    pacer = Pacer(rate_bps=8_000.0, burst_bytes=1_000)
    pacer.on_packet_sent(1_000, now=0.0)
    assert pacer.time_until_send(500, now=0.5) == 0.0


def test_tokens_capped_at_burst():
    pacer = Pacer(rate_bps=8_000_000.0, burst_bytes=1_000)
    # After a long idle period only `burst` tokens are available.
    assert pacer.time_until_send(1_000, now=100.0) == 0.0
    pacer.on_packet_sent(1_000, now=100.0)
    pacer.on_packet_sent(1_000, now=100.0)
    assert pacer.time_until_send(1_000, now=100.0) > 0.0


def test_negative_token_debt_delays_subsequent_sends():
    pacer = Pacer(rate_bps=8_000.0, burst_bytes=1_000)
    pacer.on_packet_sent(2_000, now=0.0)  # 1000B of debt
    assert pacer.time_until_send(500, now=0.0) == pytest.approx(1.5)


def test_set_rate_changes_drain_speed():
    pacer = Pacer(rate_bps=8_000.0, burst_bytes=1_000)
    pacer.on_packet_sent(1_000, now=0.0)
    pacer.set_rate(80_000.0, now=0.0)  # 10 kB/s
    assert pacer.time_until_send(500, now=0.0) == pytest.approx(0.05)


def test_pacing_spreads_packets_at_rate():
    """Sending N packets should take ~(N·size·8/rate) seconds."""
    pacer = Pacer(rate_bps=1_000_000.0, burst_bytes=1_252)
    now = 0.0
    for _ in range(50):
        wait = pacer.time_until_send(1_252, now)
        now += wait
        pacer.on_packet_sent(1_252, now)
    # 50 packets minus the 1-packet burst, at 1Mbps.
    expected = 49 * 1_252 * 8 / 1_000_000.0
    assert now == pytest.approx(expected, rel=0.05)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        Pacer(rate_bps=0.0, burst_bytes=1_000)
    with pytest.raises(ValueError):
        Pacer(rate_bps=1.0, burst_bytes=0)
    pacer = Pacer(rate_bps=1.0, burst_bytes=1_000)
    with pytest.raises(ValueError):
        pacer.set_rate(0.0, now=0.0)


class ReferenceBucket:
    """The token bucket as first written: every call refills first, even
    at the instant of the previous one.  The oracle for the pacer, which
    skips the refill when the clock has not moved."""

    def __init__(self, rate_bps, burst_bytes):
        self.rate_bps = rate_bps
        self.burst_bytes = burst_bytes
        self.tokens = float(burst_bytes)
        self.last_update = 0.0

    def refill(self, now):
        elapsed = now - self.last_update
        if elapsed > 0:
            self.tokens = min(
                float(self.burst_bytes), self.tokens + elapsed * self.rate_bps / 8.0
            )
            self.last_update = now

    def set_rate(self, rate_bps, now):
        self.refill(now)
        self.rate_bps = rate_bps

    def time_until_send(self, size, now):
        self.refill(now)
        if self.tokens >= size:
            return 0.0
        deficit = size - self.tokens
        return deficit * 8.0 / self.rate_bps

    def on_packet_sent(self, size, now):
        self.refill(now)
        self.tokens -= size


#: One pacer call: which, the clock step before it (zero half the time —
#: a pump sets the rate, asks and spends at one instant), a rate and a size.
pacer_calls = st.lists(
    st.tuples(
        st.sampled_from(["set_rate", "time_until_send", "on_packet_sent"]),
        st.one_of(st.just(0.0), st.floats(1e-7, 0.05)),
        st.floats(1e3, 1e9),
        st.integers(1, 5_000),
    ),
    min_size=1,
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(st.floats(1e3, 1e9), st.integers(1_252, 20 * 1_252), pacer_calls)
def test_pacer_equals_refill_on_every_call(rate_bps, burst_bytes, calls):
    """Random set_rate / time_until_send / on_packet_sent sequences: the
    waits and the token count equal the reference bucket's exactly.

    The sequences ignore the waits, so the bucket can sink far into
    debt; this pins the arithmetic there too."""
    pacer = Pacer(rate_bps=rate_bps, burst_bytes=burst_bytes)
    reference = ReferenceBucket(rate_bps, burst_bytes)
    now = 0.0
    for kind, step, rate, size in calls:
        now += step
        if kind == "set_rate":
            pacer.set_rate(rate, now)
            reference.set_rate(rate, now)
        elif kind == "time_until_send":
            assert pacer.time_until_send(size, now) == reference.time_until_send(size, now)
        else:
            pacer.on_packet_sent(size, now)
            reference.on_packet_sent(size, now)
        assert pacer._tokens == reference.tokens
        assert pacer.rate_bps == reference.rate_bps
