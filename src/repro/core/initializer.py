"""Initial parameter configuration (§IV-C, Table I).

Given the transport signals Wira gathered — the parsed ``FF_Size``
(§IV-A) and the validated ``Hx_QoS`` cookie (§IV-B) — compute the
connection's initial congestion window and pacing rate per scheme:

==========  =========================  ==========================
Scheme      init_cwnd                  init_pacing
==========  =========================  ==========================
BASELINE    init_cwnd_exp              init_cwnd / init_RTT
WIRA_FF     FF_Size                    init_cwnd / init_RTT
WIRA_HX     BDP = MaxBW × MinRTT       MaxBW
WIRA        min{FF_Size, BDP}          MaxBW
STATIC_10   10 packets (RFC 6928)      init_cwnd / init_RTT
==========  =========================  ==========================

``init_RTT`` is the *measured* handshake RTT when the connection took
the 1-RTT path (§VI: "the server measures the accurate RTT and uses it,
instead of the configured initial RTT") and ``init_RTT_exp`` otherwise.
Likewise the BDP uses the measured RTT when available.

Corner cases (§IV-C) are handled exactly as described:

1. **FF_Size not yet parsed** — substitute ``init_cwnd_exp``; the
   connection later re-initializes once the parser completes ("the
   init_cwnd will be updated to the minimum value of FF_Size and BDP").
2. **Cookie stale or absent** (T > Δ) — ``init_cwnd = FF_Size`` and
   ``init_pacing = FF_Size / init_RTT_exp``.

Scheme *dispatch* lives in :mod:`repro.core.schemes`: every scheme is a
registered :class:`~repro.core.schemes.InitPolicy`, and the five Table I
rows are stateless policies over :func:`table1_params` below, named by
the spec constants ``BASELINE`` … ``STATIC_10`` there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.config import WiraConfig
from repro.core.transport_cookie import HxQos
from repro.quic.config import (
    INITIAL_WINDOW_PACKETS,
    MSS,
    PACKET_WIRE_BYTES,
    STREAM_FRAME_OVERHEAD,
)


def payload_to_wire_bytes(payload_bytes: int) -> int:
    """Window bytes needed to admit ``payload_bytes`` of stream data.

    cwnd (like the BDP) is accounted in *wire* bytes; FF_Size is a
    *stream payload* size.  The paper's window values are in packets
    (Fig 2(a): ``init_cwnd = 45`` for a 66 KB first frame ≈ FF/MSS), so
    framing is naturally included there — without this conversion an
    ``init_cwnd = FF_Size`` window is a few packets short and the first
    frame's tail stalls one extra RTT on every small-FF stream.  The
    packet model is the packetiser's: each packet carries
    ``MSS - STREAM_FRAME_OVERHEAD`` stream bytes.
    """
    packets = max(1, math.ceil(payload_bytes / (MSS - STREAM_FRAME_OVERHEAD)))
    return packets * PACKET_WIRE_BYTES


@dataclass(frozen=True)
class InitialParams:
    """The values handed to the congestion controller before data flows."""

    cwnd_bytes: int
    pacing_bps: float
    used_ff_size: bool  # FF_Size informed the window
    used_hx_qos: bool  # a valid cookie informed the rate/BDP
    provisional: bool  # corner case 1: awaiting FF_Size, will be recomputed

    def __post_init__(self) -> None:
        if self.cwnd_bytes <= 0 or self.pacing_bps <= 0:
            raise ValueError("initial parameters must be positive")


def table1_params(
    name: str,
    config: WiraConfig,
    ff_size: Optional[int] = None,
    hx_qos: Optional[HxQos] = None,
    measured_rtt: Optional[float] = None,
) -> InitialParams:
    """Table I + corner cases, keyed by scheme name.

    This is the pure math the five built-in policies share
    (:class:`repro.core.schemes.TableIPolicy`); plugin policies may call
    it for their fallback rows.

    Parameters
    ----------
    name:
        Which Table I row to compute (a legacy scheme value string).
    config:
        Wira deployment knobs (experiential values, safety bounds).
    ff_size:
        Parsed FF_Size in bytes; ``None`` triggers corner case 1 for the
        FF-aware schemes.
    hx_qos:
        Validated (authentic, fresh) cookie; ``None`` triggers corner
        case 2 for the cookie-aware schemes.  Staleness is the cookie
        manager's job — a stale cookie must be passed as ``None``.
    measured_rtt:
        Handshake RTT sample for 1-RTT connections.
    """
    init_rtt = measured_rtt if measured_rtt is not None else config.init_rtt_exp
    bdp = None
    if hx_qos is not None:
        rtt_for_bdp = measured_rtt if measured_rtt is not None else hx_qos.min_rtt
        bdp = max(PACKET_WIRE_BYTES, int(hx_qos.max_bw_bps * rtt_for_bdp / 8.0))
    # FF_Size and init_cwnd_exp are stream-payload sizes; windows are
    # accounted in wire bytes.
    ff_wire = payload_to_wire_bytes(ff_size) if ff_size is not None else None
    exp_wire = payload_to_wire_bytes(config.init_cwnd_exp)

    if name == "static_10":
        cwnd = INITIAL_WINDOW_PACKETS * PACKET_WIRE_BYTES
        return finalize_params(config, cwnd, cwnd * 8.0 / init_rtt, False, False, False)

    if name == "baseline":
        cwnd = exp_wire
        return finalize_params(config, cwnd, cwnd * 8.0 / init_rtt, False, False, False)

    if name == "wira_ff":
        provisional = ff_wire is None
        cwnd = ff_wire if ff_wire is not None else exp_wire
        return finalize_params(
            config, cwnd, cwnd * 8.0 / init_rtt, not provisional, False, provisional
        )

    if name == "wira_hx":
        if hx_qos is None:
            # No valid cookie: fall back to the experiential baseline.
            return finalize_params(config, exp_wire, exp_wire * 8.0 / init_rtt, False, False, False)
        assert bdp is not None
        return finalize_params(config, bdp, hx_qos.max_bw_bps, False, True, False)

    if name == "wira":
        if hx_qos is None:
            # Corner case 2: T > Δ (or no cookie at all).
            if ff_wire is None:
                # Both signals missing: behave like the baseline until
                # the parser completes (corner cases compose).
                return finalize_params(config, exp_wire, exp_wire * 8.0 / init_rtt, False, False, True)
            pacing = ff_wire * 8.0 / config.init_rtt_exp
            return finalize_params(config, ff_wire, pacing, True, False, False)
        assert bdp is not None
        if ff_wire is None:
            # Corner case 1: init_cwnd_exp stands in for FF_Size.
            cwnd = min(exp_wire, bdp)
            return finalize_params(config, cwnd, hx_qos.max_bw_bps, False, True, True)
        cwnd = min(ff_wire, bdp)  # Eq. 3
        return finalize_params(config, cwnd, hx_qos.max_bw_bps, True, True, False)  # Eq. 2

    raise ValueError(f"no Table I row for scheme {name!r}")


def finalize_params(
    config: WiraConfig,
    cwnd: int,
    pacing: float,
    used_ff: bool,
    used_hx: bool,
    provisional: bool,
) -> InitialParams:
    """Apply the deployment safety bounds (every policy must end here)."""
    floor = config.min_initial_cwnd_packets * PACKET_WIRE_BYTES
    cwnd = max(floor, min(int(cwnd), config.max_initial_cwnd_bytes))
    pacing = max(config.min_initial_pacing_bps, float(pacing))
    return InitialParams(cwnd, pacing, used_ff, used_hx, provisional)
