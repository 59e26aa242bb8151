"""BBRv1 congestion control (Cardwell et al., CACM 2017).

This is the controller the paper layers Wira on (§VI).  The port follows
the QUIC BBRv1 implementations (Chromium / LSQUIC):

* STARTUP — pacing gain 2/ln 2 ≈ 2.885 until bandwidth stops growing
  25 % per round for three rounds;
* DRAIN — inverse gain until in-flight falls to the estimated BDP;
* PROBE_BW — eight-phase pacing-gain cycle ``[1.25, 0.75, 1×6]``;
* PROBE_RTT — cwnd clamped to 4 packets for 200 ms when the min-RTT
  sample is older than 10 s;
* loss recovery — conservation-style recovery window, since BBRv1
  otherwise ignores loss.

Wira hooks
----------
``set_initial_window`` replaces the 10-packet default with
``min(FF_Size, BDP)`` (Eq. 3); ``set_initial_pacing_rate`` makes the very
first flight leave at ``MaxBW`` (Eq. 2) instead of
``2.885 · init_cwnd / init_RTT``.  Both overrides govern only until real
measurements flow into the model — exactly the cold-start interval that
determines first-frame completion time.
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro import obs as _obs
from repro import sanitize as _sanitize
from repro.quic.cc.bandwidth_sampler import BandwidthSampler
from repro.quic.cc.base import CongestionController, DEFAULT_MSS
from repro.quic.cc.windowed_filter import WindowedFilter
from repro.quic.rtt import RttEstimator
from repro.quic.sent_packet import SentPacket

HIGH_GAIN = 2.885  # 2/ln(2)
DRAIN_GAIN = 1.0 / HIGH_GAIN
PROBE_BW_CWND_GAIN = 2.0
PACING_GAIN_CYCLE = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
BW_WINDOW_ROUNDS = 10
MIN_RTT_WINDOW = 10.0  # seconds
PROBE_RTT_DURATION = 0.2  # seconds
STARTUP_GROWTH_TARGET = 1.25
STARTUP_FULL_BW_ROUNDS = 3
MIN_CWND_PACKETS = 4


class BbrMode(enum.Enum):
    STARTUP = "startup"
    DRAIN = "drain"
    PROBE_BW = "probe_bw"
    PROBE_RTT = "probe_rtt"


class BbrSender(CongestionController):
    """BBRv1 with Wira initialisation hooks."""

    def __init__(
        self,
        rtt: Optional[RttEstimator] = None,
        mss: int = DEFAULT_MSS,
        initial_window_packets: int = 10,
    ) -> None:
        super().__init__(rtt or RttEstimator(), mss, initial_window_packets)
        self.mode = BbrMode.STARTUP
        self.sampler = BandwidthSampler()
        self.max_bw = WindowedFilter(window=BW_WINDOW_ROUNDS, is_max=True)

        self._initial_cwnd = self._cwnd
        self._min_cwnd = MIN_CWND_PACKETS * mss

        # Round counting (a "round" is one delivered-data round trip).
        self.round_count = 0
        self._next_round_delivered = 0
        self._round_start = False

        # STARTUP full-bandwidth detection.
        self._full_bw = 0.0
        self._full_bw_count = 0
        self.full_bandwidth_reached = False

        # PROBE_BW cycle.
        self._cycle_index = 0
        self._cycle_start = 0.0

        # PROBE_RTT.
        self._min_rtt: Optional[float] = None
        self._min_rtt_timestamp = 0.0
        self._probe_rtt_done_time: Optional[float] = None
        self._probe_rtt_round_done = False
        self._exit_probe_rtt_at: Optional[float] = None

        # Loss recovery (conservation window).
        self._recovery_window: Optional[int] = None
        self._end_recovery_at: Optional[int] = None  # packet number
        self._largest_sent = -1

        self.pacing_gain = HIGH_GAIN
        self.cwnd_gain = HIGH_GAIN

    # ------------------------------------------------------------------
    # Wira hooks

    def on_initial_window_set(self, window_bytes: int) -> None:
        self._initial_cwnd = window_bytes

    # ------------------------------------------------------------------
    # Model accessors

    def bandwidth_estimate(self) -> Optional[float]:
        """Windowed-max delivery rate, bits per second."""
        return self.max_bw.get()

    def bdp_bytes(self, gain: float = 1.0) -> Optional[int]:
        bw = self.bandwidth_estimate()
        min_rtt = self._min_rtt
        if bw is None or min_rtt is None:
            return None
        return int(gain * bw * min_rtt / 8.0)

    @property
    def pacing_rate_bps(self) -> float:
        bw = self.max_bw.get()
        if bw is None:
            # Cold start: Wira override if present, else the classic
            # high-gain estimate from the initial window and RTT.
            if self._initial_pacing_rate_bps is not None:
                return self._initial_pacing_rate_bps
            return HIGH_GAIN * self._initial_cwnd * 8.0 / self.rtt.smoothed_or_initial()
        rate = self.pacing_gain * bw
        return rate if rate > 1.0 else 1.0

    @property
    def congestion_window(self) -> int:
        # Read on every send decision: the model is read once and the
        # clamps are comparisons (same arithmetic as ``bdp_bytes``).
        mode = self.mode
        min_cwnd = self._min_cwnd
        if mode is BbrMode.PROBE_RTT:
            return min_cwnd
        bw = self.max_bw.get()
        min_rtt = self._min_rtt
        if bw is None or min_rtt is None:
            cwnd = self._cwnd
        else:
            cwnd = int(self.cwnd_gain * bw * min_rtt / 8.0)
            if cwnd < min_cwnd:
                cwnd = min_cwnd
            # BBR never shrinks below the configured initial window while
            # still in STARTUP; afterwards the model rules.
            if mode is BbrMode.STARTUP and cwnd < self._initial_cwnd:
                cwnd = self._initial_cwnd
        recovery_window = self._recovery_window
        if recovery_window is not None:
            if recovery_window < min_cwnd:
                recovery_window = min_cwnd
            if cwnd > recovery_window:
                cwnd = recovery_window
        return cwnd

    # ------------------------------------------------------------------
    # Event feed

    def on_packet_sent(self, packet: SentPacket, bytes_in_flight: int, now: float) -> None:
        self.sampler.on_packet_sent(packet, bytes_in_flight, now)
        self._largest_sent = max(self._largest_sent, packet.packet_number)

    def on_packets_acked(
        self,
        acked: List[SentPacket],
        bytes_in_flight: int,
        now: float,
    ) -> None:
        if not acked:
            return
        acked_bytes = sum(p.size for p in acked)
        self._round_start = False
        for packet in acked:
            sample = self.sampler.on_packet_acked(packet, now)
            if packet.delivered >= self._next_round_delivered:
                self._next_round_delivered = self.sampler.delivered
                self.round_count += 1
                self._round_start = True
            if sample is None:
                continue
            current = self.max_bw.get()
            if current is None:
                # Never seed the model from an app-limited sample: a
                # handshake-only exchange would poison the estimate (and
                # override Wira's cookie-derived initial pacing rate).
                if not sample.is_app_limited:
                    self.max_bw.update(sample.bandwidth_bps, self.round_count)
            elif not sample.is_app_limited or sample.bandwidth_bps > current:
                self.max_bw.update(sample.bandwidth_bps, self.round_count)
            self._update_min_rtt(sample.rtt, now)

        self._maybe_exit_recovery(acked)
        if self._recovery_window is not None:
            self._recovery_window += acked_bytes

        self._update_mode(bytes_in_flight, now)

    def on_packets_lost(
        self,
        lost: List[SentPacket],
        bytes_in_flight: int,
        now: float,
    ) -> None:
        if not lost:
            return
        if self._end_recovery_at is None or self._end_recovery_at < self._largest_sent:
            # Enter (or refresh) recovery: conserve packets.
            self._end_recovery_at = self._largest_sent
            self._recovery_window = max(bytes_in_flight, self._min_cwnd)

    def on_app_limited(self, bytes_in_flight: int) -> None:
        if bytes_in_flight > 0:
            self.sampler.note_in_flight(bytes_in_flight)
        else:
            self.sampler.on_app_limited()

    # ------------------------------------------------------------------
    # Internals

    def _set_mode(self, mode: BbrMode, now: float) -> None:
        """Single funnel for mode changes — the sanitizer's attach point
        for the BBR state-machine legality invariant."""
        if _sanitize.ACTIVE is not None:
            _sanitize.ACTIVE.check_bbr_transition(self.mode, mode, now)
        if _obs.ACTIVE is not None and mode != self.mode:
            _obs.ACTIVE.emit(
                now,
                "bbr:state_updated",
                self._trace_conn,
                {"old": self.mode.value, "new": mode.value},
            )
        self.mode = mode

    def _maybe_exit_recovery(self, acked: List[SentPacket]) -> None:
        if self._end_recovery_at is None:
            return
        if any(p.packet_number > self._end_recovery_at for p in acked):
            self._end_recovery_at = None
            self._recovery_window = None

    def _update_min_rtt(self, rtt_sample: float, now: float) -> None:
        expired = now - self._min_rtt_timestamp > MIN_RTT_WINDOW
        if self._min_rtt is None or rtt_sample < self._min_rtt or expired:
            if (
                expired
                and self._min_rtt is not None
                and rtt_sample > self._min_rtt
                and self.mode != BbrMode.PROBE_RTT
                and self.full_bandwidth_reached
            ):
                self._enter_probe_rtt(now)
            self._min_rtt = rtt_sample
            self._min_rtt_timestamp = now

    def _update_mode(self, bytes_in_flight: int, now: float) -> None:
        if self.mode == BbrMode.STARTUP:
            self._check_full_bandwidth()
            if self.full_bandwidth_reached:
                self._set_mode(BbrMode.DRAIN, now)
                self.pacing_gain = DRAIN_GAIN
                self.cwnd_gain = HIGH_GAIN
        if self.mode == BbrMode.DRAIN:
            target = self.bdp_bytes()
            if target is not None and bytes_in_flight <= target:
                self._enter_probe_bw(now)
        if self.mode == BbrMode.PROBE_BW:
            self._advance_cycle(bytes_in_flight, now)
        if self.mode == BbrMode.PROBE_RTT:
            self._handle_probe_rtt(bytes_in_flight, now)

    def _check_full_bandwidth(self) -> None:
        if not self._round_start or self.full_bandwidth_reached:
            return
        bw = self.bandwidth_estimate()
        if bw is None:
            return
        if bw >= self._full_bw * STARTUP_GROWTH_TARGET:
            self._full_bw = bw
            self._full_bw_count = 0
            return
        if self.sampler.is_app_limited:
            # App-limited rounds say nothing about path capacity.
            return
        self._full_bw_count += 1
        if self._full_bw_count >= STARTUP_FULL_BW_ROUNDS:
            self.full_bandwidth_reached = True

    def _enter_probe_bw(self, now: float) -> None:
        self._set_mode(BbrMode.PROBE_BW, now)
        self.cwnd_gain = PROBE_BW_CWND_GAIN
        # Start in a random-ish but deterministic phase that is not the
        # 0.75 drain phase (mirrors Chromium's choice of excluding it).
        self._cycle_index = (self.round_count % (len(PACING_GAIN_CYCLE) - 1)) + 1
        if PACING_GAIN_CYCLE[self._cycle_index] == 0.75:
            self._cycle_index += 1
        self._cycle_index %= len(PACING_GAIN_CYCLE)
        self.pacing_gain = PACING_GAIN_CYCLE[self._cycle_index]
        self._cycle_start = now

    def _advance_cycle(self, bytes_in_flight: int, now: float) -> None:
        min_rtt = self._min_rtt or self.rtt.smoothed_or_initial()
        should_advance = now - self._cycle_start > min_rtt
        if self.pacing_gain > 1.0:
            # Stay in the probing phase until it actually created a queue.
            target = self.bdp_bytes(self.pacing_gain)
            should_advance = should_advance and (
                target is None or bytes_in_flight >= target or bytes_in_flight == 0
            )
        elif self.pacing_gain < 1.0:
            # Leave the drain phase early once the queue is gone.
            target = self.bdp_bytes()
            if target is not None and bytes_in_flight <= target:
                should_advance = True
        if should_advance:
            self._cycle_index = (self._cycle_index + 1) % len(PACING_GAIN_CYCLE)
            self.pacing_gain = PACING_GAIN_CYCLE[self._cycle_index]
            self._cycle_start = now

    def _enter_probe_rtt(self, now: float) -> None:
        self._set_mode(BbrMode.PROBE_RTT, now)
        self.pacing_gain = 1.0
        self._probe_rtt_done_time = None

    def _handle_probe_rtt(self, bytes_in_flight: int, now: float) -> None:
        if self._probe_rtt_done_time is None:
            if bytes_in_flight <= self._min_cwnd:
                self._probe_rtt_done_time = now + PROBE_RTT_DURATION
            return
        if now >= self._probe_rtt_done_time:
            self._min_rtt_timestamp = now
            if self.full_bandwidth_reached:
                self._enter_probe_bw(now)
            else:
                self._set_mode(BbrMode.STARTUP, now)
                self.pacing_gain = HIGH_GAIN
                self.cwnd_gain = HIGH_GAIN
