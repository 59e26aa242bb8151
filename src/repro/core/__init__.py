"""Wira: the paper's contribution (§III–§IV).

Three cooperating modules:

* **Frame Perception** (:mod:`repro.core.frame_perception`) — the
  cross-layer L4 parser of Algorithm 1 that identifies the first frame of
  a live stream and measures its size (FF_Size) before it is sent;
* **Transport Cookie** (:mod:`repro.core.transport_cookie`) — the
  stateless client↔cloud scheme that synchronises per-OD-pair historical
  QoS (MinRTT, MaxBW) through ``Hx_QoS`` frames and the CHLO ``HQST``
  tag, sealed with a server-side key (:mod:`repro.core.cookie_crypto`);
* **Initial Parameter Configuration**
  (:mod:`repro.core.initializer`) — Table I's schemes, computing
  ``init_cwnd = min(FF_Size, MaxBW × MinRTT)`` and
  ``init_pacing = MaxBW`` with the paper's two corner cases.
"""

from repro.core.config import WiraConfig
from repro.core.frame_perception import FrameParser, ParseStatus
from repro.core.initializer import (
    InitialParams,
    table1_params,
)
from repro.core.schemes import (
    BASELINE,
    STATIC_10,
    WIRA,
    WIRA_FF,
    WIRA_HX,
    InitContext,
    InitPolicy,
    SchemeDef,
    SchemeSpec,
    as_spec,
    make_policy,
    register,
)
from repro.core.transport_cookie import (
    ClientCookieStore,
    HxQos,
    decode_hqst,
    encode_hqst,
)
from repro.core.cookie_crypto import CookieSealer, CookieError

__all__ = [
    "BASELINE",
    "ClientCookieStore",
    "CookieError",
    "CookieSealer",
    "FrameParser",
    "HxQos",
    "InitContext",
    "InitPolicy",
    "InitialParams",
    "ParseStatus",
    "STATIC_10",
    "SchemeDef",
    "SchemeSpec",
    "WIRA",
    "WIRA_FF",
    "WIRA_HX",
    "WiraConfig",
    "as_spec",
    "decode_hqst",
    "encode_hqst",
    "make_policy",
    "register",
    "table1_params",
]
