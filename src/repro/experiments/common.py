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

A world also memoizes the sessions simulated against it.  Table I makes
schemes coincide — with no valid cookie Wira(Hx) *is* the baseline and
Wira *is* Wira(FF), and with BDP <= FF_Size Wira is Wira(Hx) — so a
later scheme often faces a session an earlier one already ran.  It takes
that outcome instead of simulating it when it starts from an equal
state (echoed HQST bytes, cookie-manager counters, transport stack) and
its policy answers every ``initial_params`` question the earlier run
asked alike.  That is exact, not approximate: before the first
``initial_params`` call a session depends only on its start state, and
``initial_params`` is a pure read of ``(policy state, ctx)``, so equal
answers mean an equal continuation (:class:`SharedSession`).  The
sanitizer simulates every shared session anyway and compares
(``shared_session``); a traced replay shares nothing.

One sharing rule serves both engines that replay sessions under several
schemes: :meth:`SessionSide.play` takes or simulates one session against
a memo its caller owns and keys.  A chain replay keys the world's memo
by planned session index (:class:`SchemeReplay`); the robustness matrix
(:mod:`repro.experiments.robustness`) keys one memo per cell by (fault,
schedule) and one per seed for the priming sessions.

Task sharding and the in-process memo of whole replays, which lets Figs
11–15 read one deployment run, live in :mod:`repro.experiments.runner`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro import obs as _obs
from repro import sanitize as _sanitize
from repro.cdn.client import WiraClient
from repro.cdn.origin import Origin
from repro.cdn.session import SessionResult, SessionSpec, StreamingSession
from repro.core.config import WiraConfig
from repro.core.initializer import InitialParams
from repro.core.schemes import (
    BASELINE,
    InitContext,
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


#: Simulated sessions kept for later schemes: per key, one
#: :class:`SharedSession` per scheme that simulated the session the key
#: names and recorded it.  The key is whatever names a session to the
#: memo's owner — a planned session's index in a chain, a robustness
#: cell's (fault, schedule).
SessionMemo = Dict[Hashable, List["SharedSession"]]


class ChainWorld:
    """Everything about one OD pair's chain that no scheme can change,
    and every session of it a scheme has simulated.

    The planned sessions and the origin hosting the chain's one live
    stream.  The live source is a deterministic function of
    ``(StreamProfile, gop_index)``, so replaying every scheme against
    one world instead of one world per scheme is a pure memo: the
    complexity walk to a join epoch happens once per OD pair.

    ``sessions`` memoizes simulated sessions by planned session index:
    one :class:`SharedSession` per scheme that simulated that session and
    recorded it, for the schemes replaying the chain after it.  A world
    belongs to the chain block being replayed and dies with it; nothing
    a session does may mutate it beyond filling the source's memo, and
    only the replay adds to ``sessions``.
    """

    __slots__ = ("chain_index", "chain", "origin", "stream_name", "sessions")

    def __init__(self, chain_index: int, chain: Sequence[PlannedSession]) -> None:
        self.chain_index = chain_index
        self.chain = chain
        self.stream_name = f"stream-{chain_index}"
        self.origin = Origin()
        self.origin.add_stream(self.stream_name, chain[0].stream_profile)
        self.sessions: SessionMemo = {}


#: The origin id every :class:`StreamingSession` client keeps its cookie under.
ORIGIN_ID = "origin"

#: What a session starts from, as far as the (scheme, chain) running it
#: can tell it apart: the HQST bytes its client echoes, the cookie
#: manager's nonce counter and its rejected and stale counts, and the
#: scheme's transport stack.
StartState = Tuple[bytes, int, int, int, Optional[QuicConfig]]

#: What a session leaves in its (scheme, chain)'s cookie state: the
#: store's entry when the session replaced it (``None`` when it did
#: not), then the manager's three counters.
CookieState = Tuple[Optional[Tuple[bytes, float]], int, int, int]


class SharedSession:
    """One simulated session, kept for the schemes that replay it later.

    ``start`` is the state the session started from and ``asked`` the
    ``(InitContext, answer)`` pairs its server put to the policy, in
    order; ``result`` and ``after`` are what it produced.  Until its
    first ``initial_params`` call a session is a function of its start
    state alone, and ``initial_params`` is a pure read of ``(policy
    state, ctx)`` (the :class:`~repro.core.schemes.InitPolicy`
    contract), so the next context depends only on the answers so far.
    A scheme that starts from an equal state and answers every context
    alike on ``(cwnd_bytes, pacing_bps, provisional)`` would therefore
    simulate exactly this session: it takes ``result`` and ``after``
    instead.
    """

    __slots__ = ("start", "asked", "result", "after")

    def __init__(
        self,
        start: StartState,
        asked: Tuple[Tuple[InitContext, InitialParams], ...],
        result: SessionResult,
        after: CookieState,
    ) -> None:
        self.start = start
        self.asked = asked
        self.result = result
        self.after = after


def _table1_row(params: InitialParams) -> Tuple[int, float, bool]:
    """What of an answer the session acts on; the two ``used_*`` flags only label it."""
    return (params.cwnd_bytes, params.pacing_bps, params.provisional)


class _AskedPolicy(InitPolicy):
    """A scheme's policy that notes every question put to it, in order."""

    __slots__ = ("policy", "asked")

    def __init__(self, policy: InitPolicy) -> None:
        super().__init__(policy.spec, policy.seed)
        self.policy = policy
        self.asked: List[Tuple[InitContext, InitialParams]] = []

    def initial_params(self, ctx: InitContext) -> InitialParams:
        params = self.policy.initial_params(ctx)
        self.asked.append((ctx, params))
        return params

    def quic_config(self) -> Optional[QuicConfig]:
        return self.policy.quic_config()


def build_worlds(
    chains: Sequence[Sequence[PlannedSession]], base_index: int
) -> List[ChainWorld]:
    """One world per chain of a block whose first chain is ``base_index``."""
    return [ChainWorld(base_index + offset, chain) for offset, chain in enumerate(chains)]


class SessionSide:
    """One scheme's side of a session, and the take-or-simulate step.

    The origin and stream a session plays, the client's cookie store,
    the cookie manager and the scheme's policy: everything a session
    starts from and writes into.  :meth:`play` is the one sharing rule
    both engines replay through.  A chain replay keeps one side per
    (scheme, chain) (:class:`SchemeReplay`); the robustness matrix
    (:mod:`repro.experiments.robustness`) builds one per session.  The
    memo a side plays against is its caller's, and so is the key that
    names a session in it.
    """

    __slots__ = ("origin", "stream_name", "store", "manager", "policy")

    def __init__(
        self,
        origin: Origin,
        stream_name: str,
        store: ClientCookieStore,
        manager: ServerCookieManager,
        policy: InitPolicy,
    ) -> None:
        self.origin = origin
        self.stream_name = stream_name
        self.store = store
        self.manager = manager
        self.policy = policy

    def session(
        self, spec: SessionSpec, policy: Optional[InitPolicy] = None
    ) -> StreamingSession:
        return StreamingSession(
            spec,
            self.origin,
            self.stream_name,
            cookie_store=self.store,
            cookie_manager=self.manager,
            init_policy=self.policy if policy is None else policy,
        )

    def start_state(self, spec: SessionSpec) -> StartState:
        manager = self.manager
        return (
            WiraClient.build_hqst_tag(
                self.store, ORIGIN_ID, supported=spec.client_supports_cookies
            ),
            manager._nonce_counter,
            manager.rejected_cookies,
            manager.stale_cookies,
            self.policy.quic_config(),
        )

    def cookie_state(self, before: Optional[Tuple[bytes, float]]) -> CookieState:
        """The cookie state a session left, given the store entry it began with."""
        entry = self.store.get(ORIGIN_ID)
        manager = self.manager
        return (
            None if entry is before else entry,
            manager._nonce_counter,
            manager.rejected_cookies,
            manager.stale_cookies,
        )

    def take_cookie_state(self, after: CookieState) -> None:
        entry, nonce_counter, rejected, stale = after
        if entry is not None:
            self.store.update(ORIGIN_ID, *entry)
        manager = self.manager
        manager._nonce_counter = nonce_counter
        manager.rejected_cookies = rejected
        manager.stale_cookies = stale

    def match(
        self, recorded: Sequence[SharedSession], start: StartState
    ) -> Optional[Tuple[SharedSession, Optional[InitialParams]]]:
        """A recorded session this side would simulate identically, and
        this side's last answer in it; ``None`` when there is none."""
        for shared in recorded:
            if shared.start != start:
                continue
            answer: Optional[InitialParams] = None
            for ctx, recorded_answer in shared.asked:
                answer = self.policy.initial_params(ctx)
                if _table1_row(answer) != _table1_row(recorded_answer):
                    break
            else:
                return shared, answer
        return None

    def play(
        self, sessions: SessionMemo, key: Hashable, spec: SessionSpec, record: bool
    ) -> SessionResult:
        """Run the session ``key`` names in ``sessions``, or take it.

        Takes the outcome of a session another side simulated when
        :meth:`match` finds one among ``sessions[key]``; simulates
        otherwise, and with ``record`` keeps it there for the sides
        after this one.  Under the sanitizer a taken session is
        simulated as well and the two compared (``shared_session``);
        under the trace bus nothing is shared, because every session
        writes its own trace and breakdown.
        """
        if _obs.ACTIVE is not None:
            return self.session(spec).run()
        if not record and key not in sessions:
            return self.session(spec).run()
        start = self.start_state(spec)
        before = self.store.get(ORIGIN_ID)
        hit = self.match(sessions.get(key, ()), start)
        if hit is not None:
            shared, answer = hit
            result = replace(shared.result, scheme=spec.scheme, initial_params=answer)
            sanitizer = _sanitize.ACTIVE
            if sanitizer is None:
                self.take_cookie_state(shared.after)
                return result
            simulated = self.session(spec).run()
            sanitizer.check_shared_session(
                str(spec.trace_label),
                result,
                simulated,
                shared.after,
                self.cookie_state(before),
            )
            return simulated
        if not record:
            return self.session(spec).run()
        asked = _AskedPolicy(self.policy)
        result = self.session(spec, asked).run()
        sessions.setdefault(key, []).append(
            SharedSession(start, tuple(asked.asked), result, self.cookie_state(before))
        )
        return result


class SchemeReplay(SessionSide):
    """One scheme's side of one chain: the state a scheme does change.

    Cookie store, cookie manager and policy live for one (scheme, chain)
    and are never shared; the world they replay against is.
    """

    __slots__ = ("scheme", "world", "config", "wira_config")

    def __init__(
        self,
        scheme: SchemeLike,
        world: ChainWorld,
        config: DeploymentConfig,
        wira_config: WiraConfig,
    ) -> None:
        super().__init__(
            world.origin,
            world.stream_name,
            ClientCookieStore(),
            chain_cookie_manager(world.chain_index, wira_config),
            chain_policy(scheme, world.chain_index, config),
        )
        self.scheme = scheme
        self.world = world
        self.config = config
        self.wira_config = wira_config

    def spec(self, planned: PlannedSession) -> SessionSpec:
        return session_spec_for(
            planned, self.scheme, self.world.chain_index, self.config, self.wira_config
        )

    def outcome(self, planned: PlannedSession, result: SessionResult) -> SessionOutcome:
        """Record one finished session: the policy observes it first."""
        self.policy.observe(result)
        return SessionOutcome(planned, result)

    def replay(self, planned: PlannedSession, record: bool) -> SessionOutcome:
        """Replay one planned session against the shared world, whose
        memo names it by its index in the chain (:meth:`SessionSide.play`)."""
        result = self.play(
            self.world.sessions, planned.session_index, self.spec(planned), record
        )
        return self.outcome(planned, result)


def iter_chain_outcomes(
    scheme: SchemeLike,
    chain: Sequence[PlannedSession],
    chain_index: int,
    config: DeploymentConfig,
    wira_config: WiraConfig,
    *,
    world: Optional[ChainWorld] = None,
    record: bool = True,
) -> Iterator[SessionOutcome]:
    """Replay one chain, yielding each outcome as it completes.

    The one replay path: a block is this, once per (scheme, chain),
    over shared worlds.  ``world`` is the chain's shared world: a
    session recorded in it by an earlier scheme is taken instead of
    simulated where :meth:`SchemeReplay.match` allows, and with
    ``record`` the sessions this replay simulates are recorded for the
    schemes after it.  A single-scheme caller (the parity tests'
    private-world reference, the benchmark's fold drive) omits the world
    and gets a private one, which shares nothing.  The replay state dies
    with the generator, and every session it ran died when it returned,
    so the outcomes yielded are all that is left of a chain.
    """
    shared = world is not None
    replay = SchemeReplay(
        scheme, world or ChainWorld(chain_index, chain), config, wira_config
    )
    for planned in chain:
        yield replay.replay(planned, record and shared)


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
    record: bool = False,
) -> List[List[SessionOutcome]]:
    """One scheme over many chains, chain by chain; per-chain outcome lists.

    Each chain is replayed to its end through :func:`iter_chain_outcomes`
    before the next begins, so one chain's replay state and its last
    session are gone when the next chain starts.  Nothing here is
    batched and there are no waves: the name is what ``bench/`` wraps
    (through this module's global) and stays until a ``benchmark`` PR
    moves the hook to :func:`replay_block`.

    ``worlds`` are the chains' shared worlds, one per chain in order:
    this scheme takes the sessions earlier schemes recorded in them
    where it may, and with ``record`` records its own for the schemes
    after it.  A single-scheme caller omits them and gets fresh ones.
    """
    if worlds is None:
        worlds = build_worlds(chains, base_index)
    return [
        list(
            iter_chain_outcomes(
                scheme,
                chain,
                world.chain_index,
                config,
                wira_config,
                world=world,
                record=record,
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
    replay it, and so is every session two schemes would run alike
    (:class:`SharedSession`): each scheme but the last records what it
    simulates, and each scheme but the first takes what it may.
    Everything else a session or a (scheme, chain) builds is freed as
    soon as it returns, so a block's memory is its worlds plus the
    outcomes it hands back.
    """
    worlds = build_worlds(chains, base_index)
    last = len(schemes) - 1
    # Resolved through the module global on every call: the benchmark
    # harness wraps ``replay_chains_wave_batched`` at run time.
    return {
        scheme.value: replay_chains_wave_batched(
            scheme,
            chains,
            base_index,
            config,
            wira_config,
            worlds=worlds,
            record=position < last,
        )
        for position, scheme in enumerate(schemes)
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
