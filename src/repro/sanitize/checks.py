"""Invariant checks installed at the Wira hook attach points.

The checks mirror what LSQUIC asserts in C at the same layer:

===========================  ==============================================
Invariant                    Attach point
===========================  ==============================================
``clock_monotonic``          :meth:`EventLoop._run` (checked pop loop)
``pacer_tokens``             :class:`Pacer` refill / consume
``packet_number_monotonic``  :meth:`Connection._send_packet`
``cwnd_bounds``              :meth:`Connection._send_packet`
``ack_range``                :meth:`LossRecovery.on_ack_received`
``datagram_parse``           :meth:`Connection.datagram_received`
``bbr_transition``           :meth:`BbrSender._set_mode`
``init_override_once``       ``set_initial_window`` / ``set_initial_pacing_rate``
``shared_session``           :meth:`SchemeReplay.replay` (a session one
                             scheme takes from another is simulated too)
===========================  ==============================================

Each check is a few comparisons — except ``datagram_parse``, which
decodes the datagram's bytes and compares the result with the parse the
sender attached; per-object bookkeeping lives in
``_san_*`` attributes on the (unslotted) transport objects so the
sanitizer itself holds no global state and never outlives a session.

Deliberate deviations from the strict textbook form, both visible in the
transport code they guard:

* the token bucket may legitimately go *bounded* negative — debt
  scheduling is how the pacer spaces the next release, and handshake
  packets bypass pacing entirely — so the floor is one extra burst of
  debt rather than zero;
* the cwnd floor is **1 MSS**, not LSQUIC's 2: Wira's ``min(FF_Size,
  BDP)`` clamp (Eq. 3) deliberately admits a single-packet window on
  very low-BDP paths, and the initializer's own floor is one wire
  packet.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Tuple

from repro.sanitize.errors import SanitizerError

#: Absolute ceiling for any congestion window (bytes).  2.885x the
#: largest plausible BDP in the deployment matrix; anything above it is
#: state corruption, not a fast path.
MAX_CWND_BYTES = 1 << 27

#: cwnd floor in MSS units (see module docstring for why it is 1, not 2).
MIN_CWND_MSS = 1

#: Extra bursts of token debt tolerated beyond a drained bucket.
PACER_DEBT_BURSTS = 1.0

#: Legal BBR state-machine edges (mode.value -> mode.value):
#: STARTUP->DRAIN->PROBE_BW, PROBE_RTT entered from any post-startup
#: mode once the min-RTT estimate expires, and left to PROBE_BW (model
#: filled) or back to STARTUP (model still empty).
LEGAL_BBR_TRANSITIONS = frozenset(
    {
        ("startup", "drain"),
        ("drain", "probe_bw"),
        ("probe_bw", "probe_rtt"),
        ("drain", "probe_rtt"),
        ("probe_rtt", "probe_bw"),
        ("probe_rtt", "startup"),
    }
)

#: Maximum times an initial-parameter override may be applied per
#: controller: once up front, plus one corner-case-1 re-initialization
#: after the frame parser completes (SS IV-C).
MAX_INITIAL_OVERRIDES = 2

def _acted_on(params: object) -> object:
    if params is None:
        return None
    return (
        params.cwnd_bytes,  # type: ignore[attr-defined]
        params.pacing_bps,  # type: ignore[attr-defined]
        params.provisional,  # type: ignore[attr-defined]
    )


class TransportSanitizer:
    """Cheap invariant checks; raises :class:`SanitizerError` on breach.

    One instance is installed globally through :mod:`repro.sanitize`;
    :attr:`checks_run` counts executed checks per invariant so tests can
    verify the sanitizer was genuinely active during a run.
    """

    __slots__ = ("checks_run",)

    def __init__(self) -> None:
        self.checks_run: Dict[str, int] = {}

    def _count(self, invariant: str) -> None:
        self.checks_run[invariant] = self.checks_run.get(invariant, 0) + 1

    # -- EventLoop ------------------------------------------------------

    def check_clock(self, now: float, when: float) -> None:
        """Simulated time never decreases across event executions."""
        self._count("clock_monotonic")
        if when < now:
            raise SanitizerError(
                "clock_monotonic",
                f"event scheduled at t={when:.9f} would rewind the clock from t={now:.9f}",
                sim_time=now,
            )

    # -- Pacer ----------------------------------------------------------

    def check_pacer(self, pacer: object, now: float) -> None:
        """Token bucket stays within [-debt bound, burst capacity]."""
        self._count("pacer_tokens")
        tokens = pacer._tokens  # type: ignore[attr-defined]
        burst = pacer.burst_bytes  # type: ignore[attr-defined]
        rate = pacer._rate_bps  # type: ignore[attr-defined]
        if rate <= 0:
            raise SanitizerError(
                "pacer_tokens", f"pacing rate {rate!r} is not positive", sim_time=now
            )
        if tokens > burst + 1e-6:
            raise SanitizerError(
                "pacer_tokens",
                f"token bucket overfilled: {tokens:.1f} tokens > burst capacity {burst}",
                sim_time=now,
            )
        debt_floor = -(1.0 + PACER_DEBT_BURSTS) * burst
        if tokens < debt_floor:
            raise SanitizerError(
                "pacer_tokens",
                f"token bucket {tokens:.1f} below the bounded-debt floor {debt_floor:.1f} "
                "(runaway unpaced sends)",
                sim_time=now,
            )

    # -- Connection send path -------------------------------------------

    def check_packet_sent(self, connection: object, packet_number: int, now: float) -> None:
        """Packet numbers strictly monotonic; cwnd within sane bounds."""
        self._count("packet_number_monotonic")
        connection_id = getattr(connection, "connection_id", None)
        largest = getattr(connection, "_san_largest_pn", None)
        if largest is not None and packet_number <= largest:
            raise SanitizerError(
                "packet_number_monotonic",
                f"packet number {packet_number} after {largest} (must be strictly increasing)",
                connection_id=connection_id,
                sim_time=now,
            )
        connection._san_largest_pn = packet_number  # type: ignore[attr-defined]

        self._count("cwnd_bounds")
        cc = connection.cc  # type: ignore[attr-defined]
        cwnd = cc.congestion_window
        mss = connection.config.mss  # type: ignore[attr-defined]
        if cwnd < MIN_CWND_MSS * mss:
            raise SanitizerError(
                "cwnd_bounds",
                f"cwnd {cwnd} below {MIN_CWND_MSS} MSS ({MIN_CWND_MSS * mss})",
                connection_id=connection_id,
                sim_time=now,
            )
        if cwnd > MAX_CWND_BYTES:
            raise SanitizerError(
                "cwnd_bounds",
                f"cwnd {cwnd} above the {MAX_CWND_BYTES}-byte ceiling",
                connection_id=connection_id,
                sim_time=now,
            )

    # -- Loss recovery --------------------------------------------------

    def note_sent_tracked(self, recovery: object, packet_number: int) -> None:
        """Record the largest packet number handed to loss recovery."""
        largest = getattr(recovery, "_san_largest_sent", None)
        if largest is None or packet_number > largest:
            recovery._san_largest_sent = packet_number  # type: ignore[attr-defined]

    def check_ack(self, recovery: object, ack: object, now: float) -> None:
        """ACK ranges must lie within [0, largest sent] and be well formed."""
        self._count("ack_range")
        largest_sent = getattr(recovery, "_san_largest_sent", None)
        largest_acked = ack.largest_acked  # type: ignore[attr-defined]
        ranges: Tuple[Tuple[int, int], ...] = ack.ranges  # type: ignore[attr-defined]
        if largest_sent is not None and largest_acked > largest_sent:
            raise SanitizerError(
                "ack_range",
                f"ACK for packet {largest_acked} but largest sent is {largest_sent}",
                sim_time=now,
            )
        previous_low: Optional[int] = None
        for low, high in ranges:
            if low < 0 or low > high:
                raise SanitizerError(
                    "ack_range",
                    f"malformed ACK range ({low}, {high})",
                    sim_time=now,
                )
            if previous_low is not None and high >= previous_low:
                raise SanitizerError(
                    "ack_range",
                    f"ACK ranges overlap or are unordered near ({low}, {high})",
                    sim_time=now,
                )
            previous_low = low
        if ranges and ranges[0][1] != largest_acked:
            raise SanitizerError(
                "ack_range",
                f"largest_acked {largest_acked} disagrees with leading range {ranges[0]}",
                sim_time=now,
            )

    # -- Connection receive path ----------------------------------------

    def check_datagram_parse(
        self, decode: Callable[[bytes], object], datagram: object, now: float
    ) -> None:
        """The parse riding beside a datagram's bytes is what they decode to,
        and the size the sender gave them is what they measure.

        ``decode`` is the receiver's own parser, passed in so this package
        stays independent of the transport's types.  Reading ``payload``
        builds the bytes when the sender left that to the first reader,
        so the sender's ``wire_size()`` is checked against real bytes.
        """
        self._count("datagram_parse")
        payload = datagram.payload  # type: ignore[attr-defined]
        sidecar = datagram.packet  # type: ignore[attr-defined]
        try:
            parsed = decode(payload)
        except ValueError as exc:
            raise SanitizerError(
                "datagram_parse",
                f"datagram carries a parse but its {len(payload)} bytes do not decode: {exc}",
                sim_time=now,
            ) from exc
        wire_size = sidecar.wire_size()
        if len(payload) != wire_size:
            raise SanitizerError(
                "datagram_parse",
                f"datagram's parse sizes its bytes at {wire_size} but they are {len(payload)}",
                sim_time=now,
            )
        if parsed != sidecar:
            raise SanitizerError(
                "datagram_parse",
                f"datagram's parse {sidecar!r} disagrees with its bytes, "
                f"which decode to {parsed!r}",
                sim_time=now,
            )

    # -- BBR state machine ----------------------------------------------

    def check_bbr_transition(self, old_mode: object, new_mode: object, now: float) -> None:
        self._count("bbr_transition")
        old = getattr(old_mode, "value", str(old_mode))
        new = getattr(new_mode, "value", str(new_mode))
        if old == new:
            return
        if (old, new) not in LEGAL_BBR_TRANSITIONS:
            raise SanitizerError(
                "bbr_transition",
                f"illegal BBR transition {old} -> {new}",
                sim_time=now,
            )

    # -- Wira initial-parameter overrides --------------------------------

    def check_initial_override(self, cc: object, kind: str) -> None:
        self._count("init_override_once")
        counts = getattr(cc, "_san_override_counts", None)
        if counts is None:
            counts = {}
            cc._san_override_counts = counts  # type: ignore[attr-defined]
        counts[kind] = counts.get(kind, 0) + 1
        if counts[kind] > MAX_INITIAL_OVERRIDES:
            raise SanitizerError(
                "init_override_once",
                f"initial {kind} override applied {counts[kind]} times "
                f"(allowed: once, plus one corner-case-1 re-initialization)",
            )

    # -- Sessions shared across schemes ------------------------------------

    def check_shared_session(
        self,
        label: str,
        shared: object,
        simulated: object,
        shared_after: object,
        simulated_after: object,
    ) -> None:
        """A session taken from another scheme is the one simulating gives.

        ``shared`` is the result the scheme would take and ``simulated``
        the one it got by running the session itself; ``*_after`` are
        the cookie states each leaves behind.  Every result field but
        ``scheme`` (the taker's own name) must match, the phase breakdown
        included; ``initial_params`` is compared on what the session acts
        on, without the two ``used_*`` labels.  Any difference means the
        replay's sharing rule matched a session it must not have.
        """
        self._count("shared_session")
        for field in dataclasses.fields(shared):  # type: ignore[arg-type]
            name = field.name
            if name == "scheme":
                continue
            theirs = getattr(shared, name)
            mine = getattr(simulated, name)
            if name == "initial_params":
                theirs, mine = _acted_on(theirs), _acted_on(mine)
            if theirs != mine:
                raise SanitizerError(
                    "shared_session",
                    f"{label}: the shared outcome's {name} is {theirs!r}, "
                    f"simulating the session gives {mine!r}",
                )
        if shared_after != simulated_after:
            raise SanitizerError(
                "shared_session",
                f"{label}: the shared session leaves cookie state {shared_after!r}, "
                f"simulating it leaves {simulated_after!r}",
            )
