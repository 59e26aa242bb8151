"""FFCT phase profile: a session's milestones split into phases.

The arithmetic is :func:`repro.cdn.session.phase_breakdown`; every
session runs it when it ends, and a traced session also writes the
result as one ``session:phases`` record, which ``wira-trace`` reads back
(:class:`TestProfileRecords`).
"""

import json
import math

import pytest

from repro import obs
from repro.cdn.session import PHASES, PhaseBreakdown, phase_breakdown
from repro.experiments import common
from repro.obs.events import encode_record, meta_record
from repro.quic import Connection, QuicConfig, Role
from repro.simnet.engine import EventLoop
from repro.simnet.path import NetworkConditions, Path
from tools.wira_trace.cli import summarize_session


def milestones(with_loss=True, **changes):
    """A hand-built session with known phase durations.

    handshake 10ms, request 2ms, origin 8ms, one 10ms retransmit stall,
    transmit 70ms — total FFCT 100ms.
    """
    values = {
        "request_sent": 0.000,
        "handshake_done": 0.010,
        "request_received": 0.012,
        "first_data_sent": 0.020,
        "first_frame": 0.100,
        "stalls": [(0.050, 0.060)] if with_loss else [],
    }
    values.update(changes)
    return values


#: The trace event that marks each milestone.
MILESTONE_EVENTS = {
    "session:request_sent": "request_sent",
    "session:first_frame": "first_frame",
    "wira:request_received": "request_received",
    "transport:handshake_complete": "handshake_done",
}


class TestProfileEvents:
    def test_phases_match_hand_computed_values(self):
        b = phase_breakdown(**milestones())
        assert b is not None
        assert b.handshake == pytest.approx(0.010)
        assert b.request == pytest.approx(0.002)
        assert b.origin == pytest.approx(0.008)
        assert b.stalls == pytest.approx(0.010)
        assert b.transmit == pytest.approx(0.070)

    def test_phases_sum_to_ffct(self):
        b = phase_breakdown(**milestones())
        assert b.total == pytest.approx(0.100)

    def test_no_loss_means_no_stalls(self):
        b = phase_breakdown(**milestones(with_loss=False))
        assert b.stalls == 0.0
        assert b.total == pytest.approx(0.100)

    def test_first_data_send_anchors_origin_not_handshake_packet(self):
        """The server's SHLO leaves at handshake completion; the first
        data milestone is the first packet carrying a STREAM frame."""
        loop = EventLoop()
        conditions = NetworkConditions(bandwidth_bps=8e6, rtt=0.05, buffer_bytes=100_000)
        path = Path(loop, conditions)
        config = QuicConfig(initial_rtt=0.05)
        server = Connection(loop, Role.SERVER, path.send_to_client, config)
        client = Connection(loop, Role.CLIENT, path.send_to_server, config)
        path.deliver_to_server = server.datagram_received
        path.deliver_to_client = client.datagram_received
        received = []

        def on_request(stream_id, data, fin):
            received.append(loop.now)
            loop.post_later(0.005, server.send_stream_data, 1, b"x" * 100, True)

        server.on_stream_data = on_request
        client.start()
        client.send_stream_data(0, b"GET /live/s.flv\r\n", fin=True)
        loop.run_until(1.0)
        assert server.stats.handshake_completed_at is not None
        assert server.first_data_sent_at == received[0] + 0.005
        assert server.first_data_sent_at > server.stats.handshake_completed_at
        assert server.stats.packets_sent > server.stats.data_packets_sent

    @pytest.mark.parametrize("dropped", sorted(MILESTONE_EVENTS))
    def test_missing_milestone_returns_none(self, dropped):
        assert phase_breakdown(**milestones(**{MILESTONE_EVENTS[dropped]: None})) is None

    def test_no_data_packet_returns_none(self):
        assert phase_breakdown(**milestones(with_loss=False, first_data_sent=None)) is None

    def test_two_separate_stalls_sum(self):
        b = phase_breakdown(**milestones(stalls=[(0.050, 0.060), (0.070, 0.075)]))
        assert b.stalls == pytest.approx(0.015)
        assert b.total == pytest.approx(0.100)

    def test_double_declared_loss_counted_once(self):
        overlapping = [(0.050, 0.060), (0.052, 0.060)]
        assert phase_breakdown(**milestones(stalls=overlapping)).stalls == pytest.approx(0.010)
        touching = [(0.050, 0.055), (0.055, 0.060)]
        assert phase_breakdown(**milestones(stalls=touching)).stalls == pytest.approx(0.010)

    def test_stall_open_at_first_frame_clips_to_window(self):
        b = phase_breakdown(**milestones(stalls=[(0.095, math.inf)]))
        assert b.stalls == pytest.approx(0.005)
        assert b.total == pytest.approx(0.100)
        before = phase_breakdown(**milestones(stalls=[(0.001, 0.015)]))
        assert before.stalls == 0.0

    def test_events_after_first_frame_do_not_shift_phases(self):
        later = milestones(stalls=[(0.050, 0.060), (0.150, 0.200)])
        assert phase_breakdown(**later) == phase_breakdown(**milestones())

    def test_request_before_handshake_is_not_counted_twice(self):
        """A 0-RTT request that overtakes a lost CHLO: origin starts
        when the handshake completes, so the phases still sum to FFCT."""
        b = phase_breakdown(**milestones(request_received=0.004))
        assert b.request == 0.0
        assert b.origin == pytest.approx(0.010)
        assert b.total == pytest.approx(0.100)


class TestPhaseBreakdown:
    def test_as_dict_covers_all_phases(self):
        b = PhaseBreakdown(0.01, 0.002, 0.008, 0.07, 0.01)
        assert tuple(b.as_dict()) == PHASES

    def test_phase_accessor(self):
        b = PhaseBreakdown(0.01, 0.002, 0.008, 0.07, 0.01)
        assert b.phase("transmit") == 0.07
        with pytest.raises(KeyError):
            b.phase("teleport")


class TestProfileRecords:
    """``wira-trace`` takes a session's phases from its ``session:phases``."""

    def traced_files(self, tmp_path):
        with obs.tracing(trace_dir=tmp_path):
            result = common.run_testbed_session(common.manual_params(66_000, 8_000_000.0))
        return result, sorted(tmp_path.glob("*.jsonl"))

    def test_matches_profile_events(self, tmp_path):
        result, files = self.traced_files(tmp_path)
        summary = summarize_session("baseline-seed0", files)
        assert summary["phases"] == result.phase_breakdown.as_dict()

    def test_order_insensitive(self, tmp_path):
        _result, files = self.traced_files(tmp_path)
        forward = summarize_session("s", files)
        assert summarize_session("s", list(reversed(files)))["phases"] == forward["phases"]

    def test_meta_and_malformed_records_skipped(self, tmp_path):
        phases = PhaseBreakdown(0.01, 0.002, 0.008, 0.07, 0.01).as_dict()
        partial = {name: phases[name] for name in PHASES[:2]}
        lines = [
            meta_record(0.0, "srv", "s"),
            json.dumps({"time": 0.1, "name": "session:phases"}),  # no data
            encode_record(0.1, "session:phases", "srv", partial),
            encode_record(0.2, "session:phases", "srv", phases),
        ]
        path = tmp_path / "s--srv.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert summarize_session("s", [path])["phases"] == phases
