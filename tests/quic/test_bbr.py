"""Tests for BBRv1, focusing on the behaviours Wira relies on.

The state machine's legal edges are :data:`LEGAL_EDGES`.  Two kinds of
test read the edges BBR takes: real sessions, traced, whose
``bbr:state_updated`` events must walk only those edges, and
controller-level drives over a one-bottleneck path (:class:`ClosedLoop`)
that reach every edge and check what each state does.
"""

import heapq
from typing import Dict, List, NamedTuple, Optional, Tuple

import pytest

from repro import obs
from repro.cdn.origin import Origin
from repro.cdn.session import SessionSpec, StreamingSession
from repro.core.schemes import BASELINE, make_policy, scheme_names
from repro.media.source import StreamProfile
from repro.obs import TraceBus
from repro.quic.cc import CONTROLLERS
from repro.quic.cc.bbr import (
    BbrMode,
    BbrSender,
    HIGH_GAIN,
    PACING_GAIN_CYCLE,
    PROBE_RTT_DURATION,
)
from repro.quic.config import MIN_RTT_WINDOW, MSS, QuicConfig
from repro.quic.rtt import RttEstimator
from repro.quic.sent_packet import SentPacket
from repro.simnet.path import NetworkConditions
from repro.simnet.schedule import OutageWindow, PathSchedule


#: BBRv1's legal state-machine edges: STARTUP -> DRAIN -> PROBE_BW;
#: PROBE_RTT entered from DRAIN or PROBE_BW once the min-RTT estimate
#: expires, and left to PROBE_BW (it is entered only once the pipe is
#: full, so the draft's exit back to STARTUP cannot happen).
LEGAL_EDGES = frozenset(
    {
        ("startup", "drain"),
        ("drain", "probe_bw"),
        ("drain", "probe_rtt"),
        ("probe_bw", "probe_rtt"),
        ("probe_rtt", "probe_bw"),
    }
)

Edge = Tuple[str, str]


def make_bbr():
    return BbrSender(rtt=RttEstimator(initial_rtt=0.05))


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


class Ack(NamedTuple):
    """The controller right after one ACK."""

    time: float
    #: ``(old, new)`` when the ACK changed the mode, else ``None``.
    edge: Optional[Edge]
    mode: BbrMode
    in_flight: int
    bdp: Optional[int]
    cwnd: int
    pacing_gain: float
    pacing_rate_bps: float
    bandwidth_bps: Optional[float]
    #: Seconds since the min-RTT estimate was last set, before the ACK.
    min_rtt_age: float


class ClosedLoop:
    """A BBR sender on a one-bottleneck path.

    The sender sends whenever its window has room, spaced by its pacing
    rate; the bottleneck serialises packets at ``bw_bps`` behind a FIFO
    queue; each ACK returns ``rtt`` after its packet leaves the queue.
    Unlike :func:`drive`, the controller's own window and rate decide
    what is in flight, so a queue builds and drains as BBR's gains say.
    """

    def __init__(self, bbr, bw_bps=8e6, rtt=0.05):
        self.bbr = bbr
        self.bw_bps = bw_bps
        self.rtt = rtt
        self.now = 0.0
        self.in_flight = 0
        self._next_pn = 0
        self._next_send = 0.0
        self._link_free = 0.0
        self._acks = []  # heap of (ACK time, packet number, packet)

    def stall(self, seconds):
        """Hold the link, and every packet queued on it, for ``seconds``."""
        self._acks = [(at + seconds, pn, packet) for at, pn, packet in self._acks]
        self._link_free = max(self._link_free, self.now) + seconds

    def run(self, until, stop=None):
        """Advance to ``until``, or to the first ACK ``stop`` accepts;
        returns the ACKs on the way."""
        bbr = self.bbr
        acks: List[Ack] = []
        while True:
            send_at = float("inf")
            if self.in_flight + MSS <= bbr.congestion_window:
                send_at = max(self._next_send, self.now)
            ack_at = self._acks[0][0] if self._acks else float("inf")
            if min(send_at, ack_at) > until:
                self.now = until
                return acks
            if send_at <= ack_at:
                self.now = send_at
                packet = SentPacket(self._next_pn, send_at, MSS, True, True)
                self._next_pn += 1
                bbr.on_packet_sent(packet, self.in_flight, send_at)
                self.in_flight += MSS
                self._link_free = max(self._link_free, send_at) + MSS * 8 / self.bw_bps
                heapq.heappush(self._acks, (self._link_free + self.rtt, packet.packet_number, packet))
                self._next_send = send_at + MSS * 8 / bbr.pacing_rate_bps
                continue
            self.now, _, packet = heapq.heappop(self._acks)
            self.in_flight -= MSS
            before = bbr.mode
            age = self.now - bbr._min_rtt_timestamp
            bbr.on_packets_acked([packet], self.in_flight, self.now)
            ack = Ack(
                self.now,
                None if bbr.mode is before else (before.value, bbr.mode.value),
                bbr.mode,
                self.in_flight,
                bbr.bdp_bytes(),
                bbr.congestion_window,
                bbr.pacing_gain,
                bbr.pacing_rate_bps,
                bbr.bandwidth_estimate(),
                age,
            )
            acks.append(ack)
            if stop is not None and stop(ack):
                return acks


def traced_walks(run) -> Dict[str, List[Edge]]:
    """Per connection, the ``(old, new)`` of every ``bbr:state_updated``
    event ``run()`` emits, in order."""
    with obs.tracing(TraceBus(ring_size=1 << 20)) as bus:
        run()
    walks: Dict[str, List[Edge]] = {}
    for _, name, conn, data in bus.ring:
        if name == "bbr:state_updated":
            walks.setdefault(conn, []).append((data["old"], data["new"]))
    return walks


def assert_legal_walk(walk: List[Edge]) -> None:
    """The walk starts in STARTUP and takes only legal edges."""
    assert set(walk) <= LEGAL_EDGES, walk
    assert [old for old, _ in walk] == ["startup"] + [new for _, new in walk[:-1]], walk


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
    """DRAIN paces at 1 / HIGH_GAIN of the measured bandwidth, so the
    queue STARTUP built drains within about a round."""
    bbr = make_bbr()
    acks = ClosedLoop(bbr).run(until=2.0)
    drain = [ack for ack in acks if ack.mode is BbrMode.DRAIN]
    assert len(drain) > 10  # the queue stands: DRAIN lasts many ACKs
    for ack in drain:
        assert ack.pacing_gain == pytest.approx(1.0 / HIGH_GAIN)
        assert ack.pacing_rate_bps == pytest.approx(ack.bandwidth_bps / HIGH_GAIN)


def test_drain_exits_to_probe_bw_only_once_inflight_within_bdp():
    bbr = make_bbr()
    acks = ClosedLoop(bbr).run(until=2.0)
    (entry,) = [ack for ack in acks if ack.edge == ("startup", "drain")]
    assert entry.in_flight > entry.bdp  # STARTUP left a standing queue
    (exit_,) = [ack for ack in acks if ack.edge == ("drain", "probe_bw")]
    assert exit_.in_flight <= exit_.bdp
    for ack in acks:
        if ack.mode is BbrMode.DRAIN:
            assert ack.in_flight > ack.bdp
    assert bbr.mode is BbrMode.PROBE_BW


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


# ---------------------------------------------------------------------------
# PROBE_RTT, driven on the closed loop.


def in_probe_rtt(trace_conn=""):
    """A controller walked into PROBE_RTT from PROBE_BW.

    Two seconds at 50 ms reach PROBE_BW; then the route lengthens to
    60 ms, so no ACK brings a lower RTT sample until the min-RTT
    estimate expires.  Returns the controller, its path and the ACKs
    since the route changed.
    """
    bbr = make_bbr()
    bbr._trace_conn = trace_conn
    path = ClosedLoop(bbr)
    path.run(until=2.0)
    assert bbr.mode is BbrMode.PROBE_BW
    path.rtt = 0.06
    acks = path.run(until=12.5, stop=lambda ack: ack.mode is BbrMode.PROBE_RTT)
    return bbr, path, acks


def leave_probe_rtt(path):
    """The ACKs from inside PROBE_RTT up to the one that leaves it."""
    return path.run(until=path.now + 2.0, stop=lambda ack: ack.mode is not BbrMode.PROBE_RTT)


def stall_in_drain(bbr):
    """Reach DRAIN, then stall the link past the min-RTT window; the
    ACKs after the stall, up to the first mode change."""
    path = ClosedLoop(bbr)
    path.run(until=2.0, stop=lambda ack: ack.mode is BbrMode.DRAIN)
    assert bbr.mode is BbrMode.DRAIN
    path.stall(MIN_RTT_WINDOW + 0.5)
    return path.run(until=path.now + MIN_RTT_WINDOW + 1.0, stop=lambda ack: ack.edge is not None)


def test_probe_rtt_entered_once_min_rtt_is_older_than_its_window():
    *before, entry = in_probe_rtt()[2]
    assert entry.edge == ("probe_bw", "probe_rtt")
    assert entry.min_rtt_age > MIN_RTT_WINDOW
    assert before and all(ack.min_rtt_age <= MIN_RTT_WINDOW for ack in before)
    assert all(ack.mode is BbrMode.PROBE_BW for ack in before)


def test_probe_rtt_holds_four_packets_for_its_duration_then_probes_bandwidth():
    bbr, path, _ = in_probe_rtt()
    *inside, exit_ = leave_probe_rtt(path)
    assert inside and all(ack.cwnd == 4 * MSS for ack in inside)
    # The 200 ms start once in-flight is down to the four packets.
    drained = next(ack for ack in inside if ack.in_flight <= 4 * MSS)
    assert PROBE_RTT_DURATION <= exit_.time - drained.time < PROBE_RTT_DURATION + path.rtt
    assert exit_.edge == ("probe_rtt", "probe_bw")
    assert bbr.pacing_gain in PACING_GAIN_CYCLE


def test_probe_rtt_entered_from_drain_when_the_link_stalls():
    acks = stall_in_drain(make_bbr())
    assert acks[-1].edge == ("drain", "probe_rtt")
    assert acks[-1].min_rtt_age > MIN_RTT_WINDOW


def test_controller_drives_take_every_legal_edge():
    def drives():
        _, path, _ = in_probe_rtt(trace_conn="probe-bw-exit")
        leave_probe_rtt(path)
        bbr = make_bbr()
        bbr._trace_conn = "drain-stall"
        stall_in_drain(bbr)

    walks = traced_walks(drives)
    assert sorted(walks) == ["drain-stall", "probe-bw-exit"]
    for walk in walks.values():
        assert_legal_walk(walk)
    assert set().union(*walks.values()) == LEGAL_EDGES


# ---------------------------------------------------------------------------
# Real sessions, traced: every BBR mode change is one ``bbr:state_updated``.

#: The pinned session's path: 2 Mbps, 50 ms, a 25 kB buffer.  BBR fills
#: the pipe and leaves STARTUP.
PINNED_PATH = NetworkConditions(
    bandwidth_bps=2_000_000.0, rtt=0.050, loss_rate=0.0, buffer_bytes=25_000
)

#: The same path clean, with 3 % loss, and with a 100 ms outage early
#: in the transfer.
PATHS = {
    "clean": (PINNED_PATH, None),
    "lossy": (
        NetworkConditions(bandwidth_bps=2_000_000.0, rtt=0.050, loss_rate=0.03, buffer_bytes=25_000),
        None,
    ),
    "outage": (PINNED_PATH, PathSchedule(outages=(OutageWindow(start=0.3, duration=0.1),))),
}


def bbr_family() -> List[str]:
    """Every registered scheme whose connections run a BBR controller."""
    names = []
    for name in scheme_names():
        config = make_policy(name).quic_config() or QuicConfig()
        if issubclass(CONTROLLERS[config.congestion_controller], BbrSender):
            names.append(name)
    return names


def run_session(scheme, conditions=PINNED_PATH, schedule=None):
    """A 20-frame session of one live stream."""
    origin = Origin()
    origin.add_stream(
        "demo",
        StreamProfile(first_frame_target_bytes=66_000, seed=1,
                      complexity_sigma=0.02, size_jitter=0.02),
    )
    spec = SessionSpec(
        conditions=conditions, scheme=scheme, seed=3, target_video_frames=20, schedule=schedule
    )
    return StreamingSession(spec, origin, "demo").run()


def test_pinned_session_walks_startup_drain_probe_bw():
    results = []
    walks = traced_walks(lambda: results.append(run_session(BASELINE)))
    assert results[0].completed
    assert list(walks.values()) == [[("startup", "drain"), ("drain", "probe_bw")]]


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("scheme", bbr_family())
def test_sessions_walk_only_legal_edges(scheme, path):
    conditions, schedule = PATHS[path]
    walks = traced_walks(lambda: run_session(scheme, conditions, schedule))
    assert walks, "no BBR sender left STARTUP"
    for walk in walks.values():
        assert_legal_walk(walk)
