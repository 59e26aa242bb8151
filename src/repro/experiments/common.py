"""Shared machinery for the evaluation experiments.

:func:`repro.experiments.runner.run_deployment` plays every session
chain of a :class:`~repro.workload.population.Deployment` under each
comparison scheme, keeping the paired structure the paper's A/B tests
have: the same OD pairs, streams, conditions and loss randomness are
replayed per scheme; only the initialisation policy differs.  What no
scheme can change — the plan, the origin and its live source — is one
:class:`ChainWorld` per OD pair, built once and replayed against by
every scheme; what a scheme does change — cookie store, cookie manager,
policy — is one :class:`SchemeReplay` per (scheme, chain).  Cookies
persist along each chain through the client's store, so first sessions
are cookie-less and long gaps go stale — exactly the populations §VI
aggregates over.

Every engine replays through one unit, :func:`replay_block`: a block of
chains under every scheme against shared worlds.  A figure
(:mod:`repro.experiments.runner`) keeps the block's records; a fleet
campaign (:mod:`repro.fleet.engine`) folds them into aggregates.

Results are cached per configuration: Figs 11–15 all read the same
deployment run.  Task sharding and the persistent on-disk cache live in
:mod:`repro.experiments.runner`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cdn.origin import Origin
from repro.cdn.session import SessionResult, SessionSpec, StreamingSession
from repro.core.config import WiraConfig
from repro.core.initializer import InitialParams
from repro.core.schemes import (
    BASELINE,
    InitPolicy,
    SchemeLike,
    SchemeSpec,
    as_spec,
    eval_schemes,
    make_policy,
)
from repro.core.transport_cookie import ClientCookieStore, ServerCookieManager
from repro.quic.config import QuicConfig
from repro.quic.connection import HandshakeMode
from repro.simnet.path import NetworkConditions
from repro.workload.population import DeploymentConfig, PlannedSession

COOKIE_KEY = b"wira-deployment-cookie-key-32b!!"

#: The headline comparison set, in registry order (single source of
#: truth for scheme ordering and labels is :mod:`repro.core.schemes`).
EVAL_SCHEMES: Tuple[SchemeSpec, ...] = eval_schemes()

#: Deployment used by the Fig 11–15 benchmarks.  One run is shared —
#: the cache hands the same records to every figure.
HEADLINE_CONFIG = DeploymentConfig(n_od_pairs=120, seed=42)


@dataclass(frozen=True)
class SessionOutcome:
    """One (planned session, result) pair of a deployment replay."""

    spec: PlannedSession
    result: SessionResult


DeploymentRecords = Dict[SchemeLike, List[SessionOutcome]]


def chain_cookie_manager(chain_index: int, wira_config: WiraConfig) -> ServerCookieManager:
    """The per-chain cookie manager, nonce-salted by chain index.

    All chains share :data:`COOKIE_KEY` (one deployment, one key) and
    every manager's nonce counter starts at 0, so without a per-chain
    salt two chains would seal under colliding nonces — the same
    two-time-pad bug the sharded serve edge hit.  The salt depends only
    on the chain index, so serial and process-pool replays stay
    byte-identical.
    """
    return ServerCookieManager(
        COOKIE_KEY,
        staleness_delta=wira_config.staleness_delta,
        instance_salt=b"chain:%d" % chain_index,
    )


def session_spec_for(
    planned: PlannedSession,
    scheme: SchemeLike,
    chain_index: int,
    config: DeploymentConfig,
    wira_config: WiraConfig,
) -> SessionSpec:
    """The :class:`SessionSpec` that replays one planned session."""
    spec = as_spec(scheme)
    return SessionSpec(
        conditions=planned.conditions,
        scheme=spec,
        handshake_mode=planned.handshake_mode,
        epoch=planned.epoch,
        seed=planned.seed,
        target_video_frames=config.video_frames_per_session,
        wira_config=wira_config,
        schedule=planned.schedule,
        trace_label=f"{spec.value}-c{chain_index}-s{planned.session_index}",
    )


def chain_policy(
    scheme: SchemeLike, chain_index: int, config: DeploymentConfig
) -> InitPolicy:
    """The per-chain policy instance, deterministically seeded.

    One policy lives for one OD pair's chain — that is the state scope
    online schemes learn over.  The seed is a pure function of the
    deployment seed and chain index, so serial and process-pool replays
    hand every chain an identical policy.
    """
    seed = random.Random(f"policy:{config.seed}:{chain_index}").getrandbits(48)
    return make_policy(scheme, seed=seed)


class ChainWorld:
    """Everything about one OD pair's chain that no scheme can change.

    The planned sessions and the origin hosting the chain's one live
    stream.  The live source is a deterministic function of
    ``(StreamProfile, gop_index)``, so replaying every scheme against
    one world instead of one world per scheme is a pure memo: the
    complexity walk to a join epoch happens once per OD pair.  A world
    belongs to the chain block being replayed and dies with it; nothing
    a session does may mutate it beyond filling the source's memo.
    """

    __slots__ = ("chain_index", "chain", "origin", "stream_name")

    def __init__(self, chain_index: int, chain: Sequence[PlannedSession]) -> None:
        self.chain_index = chain_index
        self.chain = chain
        self.stream_name = f"stream-{chain_index}"
        self.origin = Origin()
        self.origin.add_stream(self.stream_name, chain[0].stream_profile)


def build_worlds(
    chains: Sequence[Sequence[PlannedSession]], base_index: int
) -> List[ChainWorld]:
    """One world per chain of a block whose first chain is ``base_index``."""
    return [ChainWorld(base_index + offset, chain) for offset, chain in enumerate(chains)]


class SchemeReplay:
    """One scheme's side of one chain: the state a scheme does change.

    Cookie store, cookie manager and policy live for one (scheme, chain)
    and are never shared; the world they replay against is.
    """

    __slots__ = ("scheme", "world", "config", "wira_config", "store", "manager", "policy")

    def __init__(
        self,
        scheme: SchemeLike,
        world: ChainWorld,
        config: DeploymentConfig,
        wira_config: WiraConfig,
    ) -> None:
        self.scheme = scheme
        self.world = world
        self.config = config
        self.wira_config = wira_config
        self.store = ClientCookieStore()
        self.manager = chain_cookie_manager(world.chain_index, wira_config)
        self.policy = chain_policy(scheme, world.chain_index, config)

    def session(self, planned: PlannedSession) -> StreamingSession:
        world = self.world
        return StreamingSession(
            session_spec_for(
                planned, self.scheme, world.chain_index, self.config, self.wira_config
            ),
            world.origin,
            world.stream_name,
            cookie_store=self.store,
            cookie_manager=self.manager,
            init_policy=self.policy,
        )

    def outcome(self, planned: PlannedSession, result: SessionResult) -> SessionOutcome:
        """Record one finished session: the policy observes it first."""
        self.policy.observe(result)
        return SessionOutcome(planned, result)


def iter_chain_outcomes(
    scheme: SchemeLike,
    chain: Sequence[PlannedSession],
    chain_index: int,
    config: DeploymentConfig,
    wira_config: WiraConfig,
    *,
    world: Optional[ChainWorld] = None,
) -> Iterator[SessionOutcome]:
    """Replay one chain, yielding each outcome as it completes.

    The one replay path: a block is this, once per (scheme, chain),
    over shared worlds.  ``world`` is the chain's shared world; a
    single-scheme caller (the parity tests' private-world reference, the
    benchmark's fold drive) omits it and gets a private one.  The replay
    state dies with the generator, and every session it ran died when it
    returned, so the outcomes yielded are all that is left of a chain.
    """
    replay = SchemeReplay(
        scheme, world or ChainWorld(chain_index, chain), config, wira_config
    )
    for planned in chain:
        yield replay.outcome(planned, replay.session(planned).run())


#: Chains per block: the task size of a figure replay (one block is one
#: :func:`repro.runtime.pool.run_tasks` task, so this is the granularity
#: ``jobs > 1`` shards at).  Chains never interact, so the cut is
#: invisible in the results (asserted by the byte-identity tests).
BLOCK_CHAINS = 16


def replay_chains_wave_batched(
    scheme: SchemeLike,
    chains: Sequence[Sequence[PlannedSession]],
    base_index: int,
    config: DeploymentConfig,
    wira_config: WiraConfig,
    *,
    worlds: Optional[Sequence[ChainWorld]] = None,
) -> List[List[SessionOutcome]]:
    """One scheme over many chains, chain by chain; per-chain outcome lists.

    Each chain is replayed to its end through :func:`iter_chain_outcomes`
    before the next begins, so one chain's replay state and its last
    session are gone when the next chain starts.  Nothing here is
    batched and there are no waves: the name is what ``bench/`` wraps
    (through this module's global) and stays until a ``benchmark`` PR
    moves the hook to :func:`replay_block`.

    ``worlds`` are the chains' shared worlds, one per chain in order; a
    single-scheme caller omits them and gets private ones.
    """
    if worlds is None:
        worlds = build_worlds(chains, base_index)
    return [
        list(
            iter_chain_outcomes(
                scheme, chain, world.chain_index, config, wira_config, world=world
            )
        )
        for chain, world in zip(chains, worlds)
    ]


def replay_block(
    schemes: Sequence[SchemeSpec],
    chains: Sequence[Sequence[PlannedSession]],
    base_index: int,
    config: DeploymentConfig,
    wira_config: WiraConfig,
) -> Dict[str, List[List[SessionOutcome]]]:
    """Replay a block of chains under every scheme; per-chain outcome
    lists keyed by scheme value.

    The one unit behind figure replays and fleet chunks, serial or
    sharded: scheme by scheme, and within a scheme one chain at a time
    on the solo event loop.  The block's worlds are built once, replayed
    against by every scheme and die with the block, so the
    scheme-independent half of a chain is paid once however many schemes
    replay it; everything else a session or a (scheme, chain) builds is
    freed as soon as it returns, so a block's memory is its worlds plus
    the outcomes it hands back.
    """
    worlds = build_worlds(chains, base_index)
    # Resolved through the module global on every call: the benchmark
    # harness wraps ``replay_chains_wave_batched`` at run time.
    return {
        scheme.value: replay_chains_wave_batched(
            scheme, chains, base_index, config, wira_config, worlds=worlds
        )
        for scheme in schemes
    }


def run_testbed_session(
    initial_params: InitialParams,
    conditions: Optional[NetworkConditions] = None,
    ff_target: int = 66_000,
    seed: int = 0,
    target_video_frames: int = 4,
) -> SessionResult:
    """One controlled testbed session with pinned initial parameters.

    Defaults reproduce the paper's testbed (§II footnote 2): 8 Mbps,
    3 % loss, 50 ms RTT, 25 KB buffer, and the Fig 2(a) 66 KB first
    frame.
    """
    from repro.media.source import StreamProfile

    conditions = conditions or NetworkConditions(
        bandwidth_bps=8_000_000.0, rtt=0.050, loss_rate=0.03, buffer_bytes=25_000
    )
    origin = Origin()
    origin.add_stream(
        "testbed",
        StreamProfile(
            first_frame_target_bytes=ff_target,
            complexity_sigma=0.01,
            size_jitter=0.01,
            seed=17,
        ),
    )
    spec = SessionSpec(
        conditions=conditions,
        scheme=BASELINE,  # ignored: override pins the values
        handshake_mode=HandshakeMode.ZERO_RTT,
        seed=seed,
        target_video_frames=target_video_frames,
        initial_params_override=initial_params,
        client_supports_cookies=False,
    )
    return StreamingSession(spec, origin, "testbed").run()


def manual_params(cwnd_bytes: int, pacing_bps: float) -> InitialParams:
    """Explicit (cwnd, pacing) for testbed sweeps."""
    return InitialParams(
        cwnd_bytes=cwnd_bytes,
        pacing_bps=pacing_bps,
        used_ff_size=False,
        used_hx_qos=False,
        provisional=False,
    )
