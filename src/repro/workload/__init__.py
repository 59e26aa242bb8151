"""Workload generators calibrated to the paper's measurements.

* :mod:`repro.workload.streams` — first-frame size / stream profile
  sampling matching Fig 1(a) (mean 43.1 KB, 30 % < 30 KB, 20 % > 60 KB);
* :mod:`repro.workload.network` — user-group and OD-pair QoS processes
  matching the dispersion statistics of Fig 3 (UG CV 36.4 % MinRTT /
  51.6 % MaxBW) and Fig 4 (OD CV ≈ 10 % / 27 % at 5-minute intervals,
  growing slowly with the interval);
* :mod:`repro.workload.population` — the deployment mix: OD pairs with
  session chains, inter-session gaps, 0-RTT/1-RTT split, cookie
  persistence.
"""

from repro.workload.network import NetworkModel, OdPairModel, UserGroup
from repro.workload.population import (
    Deployment,
    DeploymentConfig,
    FleetPopulation,
    PlannedSession,
)
from repro.workload.streams import sample_ff_size, sample_stream_profile

__all__ = [
    "Deployment",
    "DeploymentConfig",
    "FleetPopulation",
    "NetworkModel",
    "OdPairModel",
    "PlannedSession",
    "UserGroup",
    "sample_ff_size",
    "sample_stream_profile",
]
