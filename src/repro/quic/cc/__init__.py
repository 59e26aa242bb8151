"""Pluggable congestion control.

The paper deploys Wira's initial-parameter overrides on **BBRv1**
("we select the BBR (with version 1) scheme to support the above
parameter configurations", §VI).  :mod:`repro.quic.cc.bbr` is therefore
the primary controller; :mod:`repro.quic.cc.cubic` exists for
substrate ablations.

Every controller honours the two Wira hooks on
:class:`~repro.quic.cc.base.CongestionController`:
``set_initial_window`` and ``set_initial_pacing_rate``.
"""

from repro.quic.cc.base import CongestionController
from repro.quic.cc.bbr import BbrSender
from repro.quic.cc.bbr2 import Bbr2Sender
from repro.quic.cc.cubic import CubicSender
from repro.quic.rtt import RttEstimator

CONTROLLERS = {
    "bbr": BbrSender,
    "bbrv2": Bbr2Sender,
    "cubic": CubicSender,
}


def make_controller(name: str, rtt: RttEstimator) -> CongestionController:
    """Instantiate a controller by name (``bbr``/``bbrv2``/``cubic``)."""
    try:
        cls = CONTROLLERS[name]
    except KeyError:
        raise ValueError(f"unknown congestion controller {name!r}") from None
    return cls(rtt)


__all__ = [
    "Bbr2Sender",
    "BbrSender",
    "CongestionController",
    "CubicSender",
    "CONTROLLERS",
    "make_controller",
]
