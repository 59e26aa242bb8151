"""Online per-OD adaptive initializer: a frontier scheme beyond Table I.

The Table I schemes are *static*: Wira(Hx) trusts whatever MaxBW/MinRTT
the last session's cookie recorded, which overshoots the moment the
path drifts (and collapses to the experiential baseline whenever the
cookie is stale or missing).  :class:`AdaptiveInitPolicy` is an online
policy that tracks the realized QoS of every finished session on the
OD pair's chain (the engines call :meth:`observe` in chain order) and
initializes from a *lower-quantile* bandwidth estimate:

* ``init_pacing`` — the lower quartile (:data:`DEFAULT_QUANTILE`) of
  the last :data:`DEFAULT_HISTORY` delivery rates, capped by the
  cookie's MaxBW when one is present.  A low quantile is a
  conservative estimate under drift: overshooting the drifted path
  costs first-frame loss tails, undershooting costs at most a little
  ramp time that BBR's startup recovers.
* ``init_cwnd`` — ``min(FF_Size, BDP)`` like Wira, with the BDP built
  from the learned estimates; the corner cases compose exactly as in
  §IV-C.
* Cold start (no observations, no cookie) falls back to Wira's Table I
  row, so the first session of every chain is never worse than Wira.

Determinism: the policy never draws randomness — its state is a pure
function of ``(seed, observed outcomes)``, asserted by
``tests/core/test_adaptive.py`` and, at fleet scale, by the
serial == sharded == resumed campaign gates.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Optional

from repro.core.initializer import (
    InitialParams,
    finalize_params,
    payload_to_wire_bytes,
    table1_params,
)
from repro.core.schemes import InitContext, InitPolicy, SchemeSpec
from repro.quic.config import PACKET_WIRE_BYTES

#: Quantile of the observed delivery rates the pacing rate starts from.
DEFAULT_QUANTILE = 0.25
#: Finished sessions the estimator remembers.
DEFAULT_HISTORY = 12
#: Observations needed before the learned rate is trusted.
DEFAULT_MIN_OBSERVATIONS = 2


def _quantile(samples: List[float], q: float) -> float:
    """Nearest-rank quantile of ``samples`` (deterministic, no rng)."""
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


class AdaptiveInitPolicy(InitPolicy):
    """Quantile-tracking per-OD initializer (scheme name ``adaptive``)."""

    __slots__ = ("_bw_bps", "_rtt_s")

    def __init__(self, spec: SchemeSpec, seed: int = 0) -> None:
        super().__init__(spec, seed)
        self._bw_bps: List[float] = []
        self._rtt_s: List[float] = []

    # -- feedback ----------------------------------------------------------

    def observe(self, result: object) -> None:
        """Fold one finished session's realized QoS into the estimator."""
        bw = getattr(result, "server_max_bw", None)
        rtt = getattr(result, "server_min_rtt", None)
        if isinstance(bw, (int, float)) and bw > 0.0:
            self._bw_bps.append(float(bw))
            del self._bw_bps[:-DEFAULT_HISTORY]
        if isinstance(rtt, (int, float)) and rtt > 0.0:
            self._rtt_s.append(float(rtt))
            del self._rtt_s[:-DEFAULT_HISTORY]

    # -- initialization ----------------------------------------------------

    def initial_params(self, ctx: InitContext) -> InitialParams:
        hx = ctx.hx_qos
        learned_bw: Optional[float] = None
        if len(self._bw_bps) >= DEFAULT_MIN_OBSERVATIONS:
            learned_bw = _quantile(self._bw_bps, DEFAULT_QUANTILE)

        if learned_bw is None and hx is None:
            # Cold start: indistinguishable from Wira's Table I row.
            return table1_params(
                "wira",
                ctx.config,
                ff_size=ctx.ff_size,
                hx_qos=None,
                measured_rtt=ctx.measured_rtt,
            )

        if learned_bw is not None and hx is not None:
            bw = min(learned_bw, hx.max_bw_bps)
        elif hx is not None:
            bw = hx.max_bw_bps
        else:
            assert learned_bw is not None
            bw = learned_bw

        if ctx.measured_rtt is not None:
            rtt_for_bdp = ctx.measured_rtt
        elif hx is not None:
            rtt_for_bdp = hx.min_rtt
        elif self._rtt_s:
            rtt_for_bdp = _quantile(self._rtt_s, 0.5)
        else:
            rtt_for_bdp = ctx.config.init_rtt_exp

        bdp = max(PACKET_WIRE_BYTES, int(bw * rtt_for_bdp / 8.0))
        ff_wire = (
            payload_to_wire_bytes(ctx.ff_size) if ctx.ff_size is not None else None
        )
        if ff_wire is None:
            # Corner case 1: the experiential window stands in for
            # FF_Size and the session re-initializes once parsed.
            cwnd = min(payload_to_wire_bytes(ctx.config.init_cwnd_exp), bdp)
            return finalize_params(ctx.config, cwnd, bw, False, True, True)
        return finalize_params(ctx.config, min(ff_wire, bdp), bw, True, True, False)

    # -- determinism surface ----------------------------------------------

    def state_digest(self) -> str:
        """Hex digest of the mutable estimator state."""
        payload = {
            "seed": self.seed,
            "spec": self.spec.value,
            "bw": [repr(x) for x in self._bw_bps],
            "rtt": [repr(x) for x in self._rtt_s],
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()
