"""Tests for sender-side loss detection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quic.config import QuicConfig
from repro.quic.frames import AckFrame
from repro.quic.loss_recovery import GC_KEEP_WINDOW, LossRecovery
from repro.quic.rtt import RttEstimator
from repro.quic.sent_packet import SentPacket


def sent(pn, t=0.0, size=1200, eliciting=True, in_flight=True):
    return SentPacket(
        packet_number=pn,
        sent_time=t,
        size=size,
        ack_eliciting=eliciting,
        in_flight=in_flight,
    )


def ack(largest, ranges=None, delay_us=0):
    return AckFrame(largest, delay_us, tuple(ranges or [(0, largest)]))


def make_recovery():
    return LossRecovery(RttEstimator(initial_rtt=0.1), QuicConfig())


def test_bytes_in_flight_accounting():
    lr = make_recovery()
    lr.on_packet_sent(sent(0, size=1000))
    lr.on_packet_sent(sent(1, size=500))
    assert lr.bytes_in_flight == 1500
    lr.on_ack_received(ack(0, [(0, 0)]), now=0.1)
    assert lr.bytes_in_flight == 500


def test_ack_only_packets_do_not_count_in_flight():
    lr = make_recovery()
    lr.on_packet_sent(sent(0, in_flight=False, eliciting=False))
    assert lr.bytes_in_flight == 0


def test_rtt_sample_from_largest_newly_acked():
    lr = make_recovery()
    lr.on_packet_sent(sent(0, t=1.0))
    acked, lost = lr.on_ack_received(ack(0, [(0, 0)]), now=1.05)
    assert [p.packet_number for p in acked] == [0] and not lost
    assert lr.rtt.latest_rtt == pytest.approx(0.05)


def test_no_rtt_sample_from_duplicate_ack():
    lr = make_recovery()
    lr.on_packet_sent(sent(0, t=0.0))
    lr.on_ack_received(ack(0, [(0, 0)]), now=0.05)
    smoothed = lr.rtt.smoothed_rtt
    acked, _ = lr.on_ack_received(ack(0, [(0, 0)]), now=0.2)
    assert not acked
    assert lr.rtt.latest_rtt == pytest.approx(0.05)
    assert lr.rtt.smoothed_rtt == smoothed


def test_packet_threshold_loss():
    lr = make_recovery()
    for pn in range(5):
        lr.on_packet_sent(sent(pn, t=pn * 0.001))
    # Ack 3 and 4; packets 0 and 1 are >= 3 behind largest acked.
    _, lost = lr.on_ack_received(ack(4, [(3, 4)]), now=0.1)
    assert {p.packet_number for p in lost} == {0, 1}
    assert all(p.lost for p in lost)


def test_time_threshold_loss():
    lr = make_recovery()
    lr.on_packet_sent(sent(0, t=0.530))
    lr.on_packet_sent(sent(1, t=0.535))
    _, lost = lr.on_ack_received(ack(1, [(1, 1)]), now=0.585)  # RTT=0.05
    # Packet 0 is only 1 behind and not yet past the time threshold...
    assert not lost
    assert lr.loss_time is not None
    # ...but once the loss timer fires, it is declared lost.
    lost = lr.check_loss_timer(now=lr.loss_time + 1e-9)
    assert [p.packet_number for p in lost] == [0]


def test_loss_time_armed_for_pending_packet():
    lr = make_recovery()
    lr.on_packet_sent(sent(0, t=0.0))
    lr.on_packet_sent(sent(1, t=0.001))
    lr.on_ack_received(ack(1, [(1, 1)]), now=0.05)
    assert lr.loss_time is not None
    assert lr.loss_time == pytest.approx(0.0 + lr.rtt.loss_delay(lr.time_factor))


def test_lost_bytes_removed_from_flight():
    lr = make_recovery()
    for pn in range(5):
        lr.on_packet_sent(sent(pn, size=1000))
    lr.on_ack_received(ack(4, [(4, 4)]), now=0.1)
    # 1 acked + 2 lost by threshold (0 and 1) leaves packets 2, 3.
    assert lr.bytes_in_flight == 2000


def test_pto_deadline_tracks_last_eliciting_send():
    lr = make_recovery()
    lr.on_packet_sent(sent(0, t=1.0))
    deadline = lr.pto_deadline()
    assert deadline == pytest.approx(1.0 + lr.rtt.pto())


def test_pto_backoff_doubles():
    lr = make_recovery()
    lr.on_packet_sent(sent(0, t=0.0))
    first = lr.pto_deadline()
    lr.on_pto_fired(now=first)
    second = lr.pto_deadline()
    assert second - 0.0 == pytest.approx(2 * (first - 0.0))


def test_pto_resets_after_ack():
    lr = make_recovery()
    lr.on_packet_sent(sent(0, t=0.0))
    lr.on_pto_fired(now=0.3)
    assert lr.pto_count == 1
    lr.on_packet_sent(sent(1, t=0.35))
    lr.on_ack_received(ack(1, [(1, 1)]), now=0.4)
    assert lr.pto_count == 0


def test_pto_returns_oldest_unresolved():
    lr = make_recovery()
    for pn in range(4):
        lr.on_packet_sent(sent(pn, t=pn * 0.01))
    probes = lr.on_pto_fired(now=1.0)
    assert [p.packet_number for p in probes] == [0, 1]


def test_no_pto_when_nothing_eliciting():
    lr = make_recovery()
    lr.on_packet_sent(sent(0, eliciting=False, in_flight=False))
    assert lr.pto_deadline() is None


def test_ack_of_unknown_packet_ignored():
    lr = make_recovery()
    lr.on_packet_sent(sent(0))
    acked, _ = lr.on_ack_received(ack(9, [(9, 9)]), now=0.1)
    assert not acked


def test_non_in_flight_packets_never_reported_lost():
    lr = make_recovery()
    lr.on_packet_sent(sent(0, eliciting=False, in_flight=False))
    for pn in range(1, 6):
        lr.on_packet_sent(sent(pn, t=pn * 0.001))
    _, lost = lr.on_ack_received(ack(5, [(4, 5)]), now=0.1)
    assert 0 not in {p.packet_number for p in lost}


def test_duplicate_ack_advances_largest_acked():
    """Regression: a pure-duplicate ACK (nothing newly acked) carrying a
    larger largest_acked must still advance it and run loss detection
    (RFC 9002: largest_acked tracks the largest acknowledged packet
    regardless of whether the ACK frame is otherwise redundant)."""
    lr = make_recovery()
    for pn in range(5):
        lr.on_packet_sent(sent(pn, t=pn * 0.001))
    lr.on_ack_received(ack(1, [(1, 1)]), now=0.05)
    assert lr.largest_acked == 1
    # Packet 4 was resolved by earlier processing (e.g. a duplicated ACK
    # datagram); this ACK then carries no newly-acked numbers.
    lr.sent_packets[4].acked = True
    acked, lost = lr.on_ack_received(ack(4, [(4, 4), (1, 1)]), now=0.051)
    assert not acked
    assert lr.largest_acked == 4
    # Packet 0 is >= kPacketThreshold behind the advanced largest_acked.
    assert {p.packet_number for p in lost} == {0}


def test_duplicate_ack_runs_time_threshold_loss_detection():
    """A duplicated ACK datagram arriving past the loss deadline must
    declare the pending time-threshold loss, not return early."""
    lr = make_recovery()
    lr.on_packet_sent(sent(0, t=0.0))
    lr.on_packet_sent(sent(1, t=0.001))
    lr.on_ack_received(ack(1, [(1, 1)]), now=0.05)
    assert lr.loss_time is not None  # packet 0 pending on the timer
    acked, lost = lr.on_ack_received(ack(1, [(1, 1)]), now=0.5)
    assert not acked
    assert {p.packet_number for p in lost} == {0}


def test_duplicate_ack_never_regresses_largest_acked():
    lr = make_recovery()
    for pn in range(3):
        lr.on_packet_sent(sent(pn, t=pn * 0.001))
    lr.on_ack_received(ack(2, [(0, 2)]), now=0.05)
    assert lr.largest_acked == 2
    acked, _ = lr.on_ack_received(ack(1, [(0, 1)]), now=0.06)
    assert not acked
    assert lr.largest_acked == 2


class EnumeratingRecovery(LossRecovery):
    """``on_ack_received`` as it was before ACK ranges were bisected into
    the outstanding packets: enumerate every number the ACK spans and
    look each one up.  Kept as the oracle for the range walk."""

    def on_ack_received(self, ack, now):
        newly_acked = []
        acked_numbers = [
            pn
            for pn in ack.acked_packet_numbers()
            if pn in self.sent_packets and not self.sent_packets[pn].acked
        ]
        if self.largest_acked is None or ack.largest_acked > self.largest_acked:
            self.largest_acked = ack.largest_acked
        if not acked_numbers:
            return newly_acked, self._detect_lost(now)
        largest_newly_acked = max(acked_numbers)
        for pn in acked_numbers:
            packet = self.sent_packets[pn]
            packet.acked = True
            self._unresolved.pop(pn, None)
            self._ae_unresolved.pop(pn, None)
            if packet.in_flight and not packet.lost:
                self.bytes_in_flight -= packet.size
            newly_acked.append(packet)
        largest_packet = self.sent_packets[largest_newly_acked]
        if largest_packet.ack_eliciting and ack.largest_acked == largest_newly_acked:
            self.rtt.update(now - largest_packet.sent_time, ack.ack_delay_us / 1e6, now)
        newly_lost = self._detect_lost(now)
        self.pto_count = 0
        if len(self.sent_packets) >= 2 * GC_KEEP_WINDOW:
            self._garbage_collect(self.largest_acked)
        return newly_acked, newly_lost


def descending_ranges(numbers):
    ranges = []
    for pn in sorted(numbers, reverse=True):
        if ranges and ranges[-1][0] == pn + 1:
            ranges[-1] = (pn, ranges[-1][1])
        else:
            ranges.append((pn, pn))
    return tuple(ranges)


#: One step of a sender's life: send a packet (ack-eliciting data or a
#: bare ACK), receive an ACK for some share of everything sent so far
#: (lost and already-acked packets included, so late and duplicate ACKs
#: occur), or let the loss timer fire.  Each step also advances the clock.
recovery_steps = st.lists(
    st.tuples(
        st.sampled_from(["send", "send", "send_ack_only", "ack", "timer"]),
        st.floats(0.001, 0.08),
        st.integers(0, 2**16),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(recovery_steps)
def test_range_walk_equals_enumeration(steps):
    """Random send / ack / lose / late-ack sequences: the walk over what
    is outstanding returns what the enumeration returned — the same
    packets in the same (descending) order — and leaves the same state."""
    pair = [LossRecovery(RttEstimator(initial_rtt=0.1), QuicConfig()),
            EnumeratingRecovery(RttEstimator(initial_rtt=0.1), QuicConfig())]
    now = 0.0
    next_pn = 0
    for kind, dt, salt in steps:
        now += dt
        if kind == "timer_due" and pair[0].loss_time is not None:
            now = max(now - dt, pair[0].loss_time)
            kind = "timer"
        if kind in ("send", "send_ack_only"):
            eliciting = kind == "send"
            for lr in pair:
                lr.on_packet_sent(sent(next_pn, t=now, size=100 + salt % 1100,
                                       eliciting=eliciting, in_flight=eliciting))
            next_pn += 1
        elif kind == "timer":
            lost = [[p.packet_number for p in lr.check_loss_timer(now)] for lr in pair]
            assert lost[0] == lost[1]
        elif next_pn:
            # A pseudo-random subset of everything ever sent.
            acked = [pn for pn in range(next_pn) if (salt >> (pn % 16)) & 1] or [salt % next_pn]
            frame = AckFrame(max(acked), salt % 5000, descending_ranges(acked))
            walked, enumerated = [
                [[p.packet_number for p in packets] for packets in lr.on_ack_received(frame, now)]
                for lr in pair
            ]
            assert walked == enumerated
        new, old = pair
        assert new.bytes_in_flight == old.bytes_in_flight
        assert new.largest_acked == old.largest_acked
        assert new.loss_time == old.loss_time
        assert new.pto_deadline() == old.pto_deadline()
        assert new.rtt.smoothed_rtt == old.rtt.smoothed_rtt
        assert new.rtt.latest_rtt == old.rtt.latest_rtt
        assert [(p.acked, p.lost) for p in new.sent_packets.values()] == [
            (p.acked, p.lost) for p in old.sent_packets.values()
        ]


def test_garbage_collection_forgets_unacked_numbers_too():
    """A lost packet that is never acknowledged leaves ``sent_packets``
    at the GC horizon; its number must leave ``_unacked`` with it, or the
    list would grow with every loss of a long session."""
    lr = make_recovery()
    total = 2 * GC_KEEP_WINDOW + 10
    for pn in range(total):
        lr.on_packet_sent(sent(pn, t=pn * 1e-4))
    # Everything but packet 0 is acknowledged; 0 is declared lost.
    _, lost = lr.on_ack_received(ack(total - 1, [(1, total - 1)]), now=1.0)
    assert [p.packet_number for p in lost] == [0]
    assert 0 not in lr.sent_packets
    assert lr._unacked == []


def recovery_state(lr):
    return (
        lr.loss_time,
        lr.bytes_in_flight,
        lr.largest_acked,
        list(lr._unresolved),
        list(lr._ae_unresolved),
        [(p.acked, p.lost) for p in lr.sent_packets.values()],
    )


@settings(max_examples=150, deadline=None)
@given(recovery_steps, st.floats(0.0, 0.999))
def test_timer_before_loss_time_declares_nothing(steps, fraction):
    """What makes the gated loss timer exact: between ACKs, detection run
    at any instant before ``loss_time`` declares nothing and leaves
    ``loss_time``, ``bytes_in_flight`` and the unresolved views as they
    were — the same ``largest_acked`` and RTT armed it."""
    lr = LossRecovery(RttEstimator(initial_rtt=0.1), QuicConfig())
    now = 0.0
    next_pn = 0
    for kind, dt, salt in steps:
        now += dt
        if kind in ("send", "send_ack_only"):
            eliciting = kind == "send"
            lr.on_packet_sent(sent(next_pn, t=now, size=100 + salt % 1100,
                                   eliciting=eliciting, in_flight=eliciting))
            next_pn += 1
        elif kind == "ack" and next_pn:
            acked = [pn for pn in range(next_pn) if (salt >> (pn % 16)) & 1] or [salt % next_pn]
            lr.on_ack_received(AckFrame(max(acked), salt % 5000, descending_ranges(acked)), now)
        elif kind == "timer":
            lr.check_loss_timer(now)
        if lr.loss_time is not None and lr.loss_time <= now:
            continue  # due: the timer would fire here and declare
        early = now + fraction * ((lr.loss_time if lr.loss_time is not None else now + dt) - now)
        before = recovery_state(lr)
        assert lr.check_loss_timer(early) == []
        assert recovery_state(lr) == before
        assert lr._detect_lost(early) == []
        assert recovery_state(lr) == before


class UngatedRecovery(LossRecovery):
    """Loss recovery whose timer always runs detection, as it did before
    fires earlier than ``loss_time`` returned at once."""

    def check_loss_timer(self, now):
        return self._detect_lost(now)


#: ``recovery_steps`` plus a fire at exactly ``loss_time`` (where the
#: connection arms its timer), an RTT sample taken outside an ACK (the
#: handshake's) and an ACK from a peer acking ahead of the sender.
gate_steps = st.lists(
    st.tuples(
        st.sampled_from(["send", "send", "send_ack_only", "ack", "ack_ahead", "timer",
                         "timer_due", "rtt_sample"]),
        st.floats(0.001, 0.08),
        st.integers(0, 2**16),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(gate_steps)
def test_gated_loss_timer_equals_detection_on_every_fire(steps):
    """Sends, ACKs (some for numbers not sent yet), handshake RTT samples
    and timer fires at random instants: the gated timer declares what
    detection on every fire declares, and leaves the same state."""
    pair = [LossRecovery(RttEstimator(initial_rtt=0.1), QuicConfig()),
            UngatedRecovery(RttEstimator(initial_rtt=0.1), QuicConfig())]
    now = 0.0
    next_pn = 0
    for kind, dt, salt in steps:
        now += dt
        if kind == "timer_due" and pair[0].loss_time is not None:
            now = max(now - dt, pair[0].loss_time)
            kind = "timer"
        if kind in ("send", "send_ack_only"):
            eliciting = kind == "send"
            for lr in pair:
                lr.on_packet_sent(sent(next_pn, t=now, size=100 + salt % 1100,
                                       eliciting=eliciting, in_flight=eliciting))
            next_pn += 1
        elif kind == "timer":
            gated, ungated = [[p.packet_number for p in lr.check_loss_timer(now)] for lr in pair]
            assert gated == ungated
        elif kind == "rtt_sample":
            for lr in pair:
                lr.on_rtt_sample(dt * (1 + salt % 7), now)
        elif kind == "ack" and next_pn or kind == "ack_ahead":
            top = next_pn + 1 + salt % 6 if kind == "ack_ahead" else next_pn
            acked = [pn for pn in range(top) if (salt >> (pn % 16)) & 1] or [salt % top]
            frame = AckFrame(max(acked), salt % 5000, descending_ranges(acked))
            results = [lr.on_ack_received(frame, now) for lr in pair]
            gated, ungated = [
                [[p.packet_number for p in packets] for packets in result] for result in results
            ]
            assert gated == ungated
        assert recovery_state(pair[0]) == recovery_state(pair[1])
        assert pair[0].pto_deadline() == pair[1].pto_deadline()
        assert pair[0].rtt.smoothed_rtt == pair[1].rtt.smoothed_rtt
