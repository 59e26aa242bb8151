"""Deployment population: OD pairs, session chains, and their timing.

The paper's evaluation observes a production proxy for six months; every
connection contributes a sample.  The reproduction's equivalent is a
:class:`Deployment`: a set of OD pairs, each with a chain of sessions at
lognormal inter-session gaps.  Every session

* is the *measurement* unit (FFCT/FFLR are recorded for all sessions,
  including first-time viewers that have no cookie yet),
* leaves behind the cookie the next session of the same OD pair echoes,
* takes the 0-RTT path with probability ≈ 0.9 (§VI: 0-RTT "accounts for
  ~90 %" of streams).

Gaps beyond Δ = 60 minutes make the previous cookie stale (corner
case 2); first sessions have none at all — both populations are what
separates full Wira from Wira(Hx) in Fig 11.

Two population flavours share the chain model:

* :class:`Deployment` — the figure-scale population (10^2–10^3 chains).
  OD pairs are drawn from one sequential :class:`NetworkModel` stream,
  so chains must be generated front-to-back; :meth:`Deployment.generate`
  is unchanged since PR 1 and :meth:`Deployment.iter_chains` streams the
  same chains without materializing the full list.
* :class:`FleetPopulation` — the campaign-scale population (10^5–10^6
  sessions).  Every chain derives from ``(seed, od_index)`` alone, so a
  fleet worker can produce exactly its shard's chains in O(shard) time
  and memory — no worker regenerates the whole deployment.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional

from repro.media.source import StreamProfile
from repro.quic.connection import HandshakeMode
from repro.simnet.path import NetworkConditions
from repro.simnet.schedule import PathSchedule
from repro.simnet.trace import ConditionTrace, TracePoint
from repro.workload.network import NetworkModel, OdPairModel
from repro.workload.streams import sample_stream_profile


@dataclass(frozen=True)
class PlannedSession:
    """Everything needed to run one session under any scheme.

    A planned session is scheme-*agnostic* — the same plan replays under
    every comparison scheme, which is what makes the A/B pairing exact.
    (The scheme-level construction spec is
    :class:`repro.cdn.session.SessionSpec`.)
    """

    od: OdPairModel
    stream_profile: StreamProfile
    conditions: NetworkConditions
    handshake_mode: HandshakeMode
    epoch: float  # wall-clock seconds at session start
    gap_minutes: float  # time since this OD pair's previous session
    session_index: int  # 0 = first ever session of the pair
    seed: int
    #: Mid-session path dynamics (``DeploymentConfig.drift``): ``None``
    #: on steady paths, a bandwidth-drop trace on drifting ones.
    schedule: Optional[PathSchedule] = None

    @property
    def is_first_session(self) -> bool:
        return self.session_index == 0


@dataclass
class DeploymentConfig:
    """Size and mix of a simulated deployment."""

    n_od_pairs: int = 150
    mean_extra_sessions: float = 4.0  # sessions per OD = 1 + Geometric
    max_sessions_per_od: int = 8
    p_zero_rtt: float = 0.9
    gap_minutes_median: float = 8.0
    gap_minutes_sigma: float = 1.3
    video_frames_per_session: int = 20
    seed: int = 0
    #: Probability that a session's path drifts mid-transfer (a sampled
    #: bandwidth collapse shortly after the handshake).  0 keeps the
    #: original steady-path population — and, because the drift draws
    #: are gated behind it, byte-identical chains.  Cookie-trusting
    #: initializers meet stale MaxBW values under drift; this is the
    #: regime the scheme-frontier campaign measures.
    drift: float = 0.0

    def __post_init__(self) -> None:
        if self.n_od_pairs < 1:
            raise ValueError("need at least one OD pair")
        if not 0.0 <= self.p_zero_rtt <= 1.0:
            raise ValueError("p_zero_rtt must be a probability")
        if not 0.0 <= self.drift <= 1.0:
            raise ValueError("drift must be a probability")


class _ChainSampler:
    """The chain model shared by both population flavours."""

    def __init__(self, config: DeploymentConfig) -> None:
        self.config = config

    def chain_for_od(self, od: OdPairModel, od_index: int) -> List[PlannedSession]:
        """One OD pair's time-ordered session chain."""
        rng = random.Random(f"chain:{self.config.seed}:{od_index}")
        profile = sample_stream_profile(
            rng,
            stream_seed=od_index * 31 + 7,
            viewer_bandwidth_bps=od.base_bandwidth_bps,
        )
        n_sessions = 1 + self._geometric(rng, self.config.mean_extra_sessions)
        n_sessions = min(n_sessions, self.config.max_sessions_per_od)

        sessions: List[PlannedSession] = []
        epoch = rng.uniform(0.0, 600.0)
        gap_minutes = 0.0
        for index in range(n_sessions):
            if index > 0:
                gap_minutes = rng.lognormvariate(
                    _ln(self.config.gap_minutes_median), self.config.gap_minutes_sigma
                )
                epoch += gap_minutes * 60.0
            conditions = od.conditions_at(rng, interval_minutes=max(gap_minutes, 5.0))
            mode = (
                HandshakeMode.ZERO_RTT
                if rng.random() < self.config.p_zero_rtt
                else HandshakeMode.ONE_RTT
            )
            seed = rng.getrandbits(48)
            # Drift draws sit strictly AFTER every steady-population
            # draw and behind the gate, so drift=0 deployments consume
            # the identical rng stream they always did.
            schedule = None
            if self.config.drift > 0.0:
                schedule = self._drift_schedule(rng, conditions)
            sessions.append(
                PlannedSession(
                    od=od,
                    stream_profile=profile,
                    conditions=conditions,
                    handshake_mode=mode,
                    epoch=epoch,
                    gap_minutes=gap_minutes,
                    session_index=index,
                    seed=seed,
                    schedule=schedule,
                )
            )
        return sessions

    def _drift_schedule(self, rng: random.Random, conditions: NetworkConditions) -> Optional[PathSchedule]:
        """Sampled mid-session bandwidth drop for drifting deployments.

        With probability ``drift`` the path's bandwidth collapses to a
        sampled fraction shortly after the handshake — the moment a
        cookie-trusting initializer has just committed to yesterday's
        MaxBW.  The onset lands inside the first-frame transfer window
        so FFCT, not steady-state throughput, feels the drift.
        """
        if rng.random() >= self.config.drift:
            return None
        factor = rng.uniform(0.15, 0.45)
        onset = rng.uniform(0.02, 0.08)
        return PathSchedule(
            trace=ConditionTrace(
                [
                    TracePoint(0.0, conditions),
                    TracePoint(onset, conditions.scaled(bandwidth_factor=factor)),
                ]
            )
        )

    @staticmethod
    def _geometric(rng: random.Random, mean: float) -> int:
        """Geometric (k >= 0) with the given mean."""
        if mean <= 0:
            return 0
        p = 1.0 / (1.0 + mean)
        count = 0
        while rng.random() > p and count < 50:
            count += 1
        return count


class Deployment:
    """Generates the session chains of one deployment (figure scale)."""

    def __init__(self, config: DeploymentConfig) -> None:
        self.config = config
        self._sampler = _ChainSampler(config)

    def iter_chains(self) -> Iterator[List[PlannedSession]]:
        """Stream the chains front-to-back without retaining them.

        Each call starts a fresh, independent pass: the sequential
        OD-pair draws restart from the deployment seed, so iterating
        twice yields identical chains.
        """
        network = NetworkModel(random.Random(f"network:{self.config.seed}"))
        for od_index in range(self.config.n_od_pairs):
            yield self._sampler.chain_for_od(network.sample_od_pair(), od_index)

    def generate(self) -> List[List[PlannedSession]]:
        """Session chains, one inner list per OD pair, time-ordered."""
        return list(self.iter_chains())

    def iter_chains_range(self, start: int, stop: int) -> Iterator[List[PlannedSession]]:
        """Chains for OD indices ``[start, stop)``, regenerated from seed.

        The OD-pair stream is one sequential rng draw per index, so a
        range worker advances the cheap OD sampling for ``0..start-1``
        and builds chains only inside its range.  This is what lets the
        replay engine ship ``(config, start, stop)`` tuples to pool
        workers instead of pickled chains: identical to slicing
        :meth:`generate`, at a fraction of the cost.
        """
        if not 0 <= start <= stop <= self.config.n_od_pairs:
            raise ValueError(
                f"invalid OD range [{start}, {stop}) for {self.config.n_od_pairs} OD pairs"
            )
        network = NetworkModel(random.Random(f"network:{self.config.seed}"))
        for od_index in range(stop):
            od = network.sample_od_pair()
            if od_index >= start:
                yield self._sampler.chain_for_od(od, od_index)

    def generate_range(self, start: int, stop: int) -> List[List[PlannedSession]]:
        """List form of :meth:`iter_chains_range`."""
        return list(self.iter_chains_range(start, stop))

    def sessions(self) -> List[PlannedSession]:
        """All sessions flattened (chains stay internally ordered)."""
        return [spec for chain in self.iter_chains() for spec in chain]


class FleetPopulation:
    """Index-addressable population for fleet-scale campaigns.

    Unlike :class:`Deployment`, whose OD pairs come off one sequential
    random stream, every fleet chain is a pure function of
    ``(config.seed, od_index)``: workers regenerate exactly the chains
    of their chunk, so per-worker cost is O(chunk), not O(deployment).
    The population model itself (user groups, dispersion, chain timing)
    is identical — only the seeding strategy differs, which is why this
    class produces a *different but statistically equivalent* population
    from a :class:`Deployment` with the same seed.
    """

    def __init__(self, config: DeploymentConfig) -> None:
        self.config = config
        self._sampler = _ChainSampler(config)

    def chain(self, od_index: int) -> List[PlannedSession]:
        """The ``od_index``-th chain, derived independently of all others."""
        if not 0 <= od_index < self.config.n_od_pairs:
            raise IndexError(
                f"od_index {od_index} out of range "
                f"[0, {self.config.n_od_pairs})"
            )
        network = NetworkModel(
            random.Random(f"fleet-od:{self.config.seed}:{od_index}")
        )
        od = replace(network.sample_od_pair(), od_id=od_index)
        return self._sampler.chain_for_od(od, od_index)

    def iter_chains(
        self, start: int = 0, stop: int | None = None
    ) -> Iterator[List[PlannedSession]]:
        """Stream chains ``[start, stop)`` (defaults: the whole fleet)."""
        if stop is None:
            stop = self.config.n_od_pairs
        for od_index in range(start, stop):
            yield self.chain(od_index)

    def iter_sessions(self) -> Iterator[PlannedSession]:
        """All sessions, streamed; memory stays O(one chain)."""
        for chain in self.iter_chains():
            yield from chain


def _ln(x: float) -> float:
    return math.log(x)
