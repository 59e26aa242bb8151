"""A chain world is a memo: sharing it across schemes changes nothing.

Every scheme of the paired A/B replays one OD pair against one
:class:`~repro.experiments.common.ChainWorld`, which also keeps the
sessions each scheme simulated so a later scheme that would run one
alike takes it instead.  The reference these tests compare against is
the replay it replaced — one private world per (scheme, chain), which is
what ``iter_chain_outcomes`` builds when handed none, and which shares
nothing.
"""

import dataclasses

import pytest

from repro import obs
from repro.cdn.session import StreamingSession
from repro.core.config import WiraConfig
from repro.core.schemes import (
    BASELINE,
    STATIC_10,
    WIRA,
    WIRA_FF,
    WIRA_HX,
    as_spec,
    scheme_names,
)
from repro.experiments import common, runner
from repro.workload.population import Deployment, DeploymentConfig

#: Every registered scheme: stateful ``adaptive``, ``wira_bbr2`` and
#: ``wira_ar`` on their own transport stacks, and ``static_10``.
SCHEMES = tuple(as_spec(name) for name in scheme_names())
LEGACY_SCHEMES = (BASELINE, WIRA_FF, WIRA_HX, WIRA, STATIC_10)
CONFIG = DeploymentConfig(n_od_pairs=5, seed=23, video_frames_per_session=6)


def assert_same_outcomes(got, expected):
    """Outcome lists equal field by field, naming the first that differs."""
    assert len(got) == len(expected)
    for mine, theirs in zip(got, expected):
        assert mine.spec == theirs.spec
        for field in dataclasses.fields(theirs.result):
            assert getattr(mine.result, field.name) == getattr(theirs.result, field.name), (
                f"{theirs.result.scheme} session {theirs.spec.session_index}: {field.name}"
            )


@pytest.fixture(autouse=True)
def untraced_small_blocks(monkeypatch):
    """Blocks of two chains, so five chains make three blocks (the last
    a single chain); ambient tracing off, as it is for the module-scoped
    reference, so neither side carries phase breakdowns.  Pool workers
    are forked per replay, so they see this state."""
    monkeypatch.setattr(common, "BLOCK_CHAINS", 2)
    monkeypatch.delenv("WIRA_TRACE", raising=False)
    monkeypatch.setattr(obs, "ACTIVE", None)


@pytest.fixture(scope="module")
def private_world_records():
    chains = Deployment(CONFIG).generate()
    ambient_bus, obs.ACTIVE = obs.ACTIVE, None  # module scope outlives the autouse fixture
    try:
        return {
            scheme: [
                outcome
                for index, chain in enumerate(chains)
                for outcome in common.iter_chain_outcomes(
                    scheme, chain, index, CONFIG, WiraConfig()
                )
            ]
            for scheme in SCHEMES
        }
    finally:
        obs.ACTIVE = ambient_bus


@pytest.mark.parametrize("jobs", [1, 2])
def test_block_major_replay_equals_private_worlds(private_world_records, jobs):
    records = runner.run_deployment(CONFIG, SCHEMES, use_cache=False, jobs=jobs)
    assert list(records) == list(SCHEMES)
    for scheme in SCHEMES:
        assert_same_outcomes(records[scheme], private_world_records[scheme])


def test_scheme_order_does_not_matter(private_world_records):
    """Whichever scheme replays a chain first pays for the walk and
    records the sessions the others may take; none of them sees a
    different world, or a different session, for it."""
    records = runner.run_deployment(
        CONFIG, tuple(reversed(SCHEMES)), use_cache=False, jobs=1
    )
    for scheme in SCHEMES:
        assert_same_outcomes(records[scheme], private_world_records[scheme])


def test_world_walked_to_later_epoch_serves_earlier_sessions_identically(
    private_world_records,
):
    chains = Deployment(CONFIG).generate()
    index = max(range(len(chains)), key=lambda i: len(chains[i]))
    chain = chains[index]
    assert len(chain) >= 2
    world = common.ChainWorld(index, chain)
    # Walk the world to the chain's last join epoch first…
    list(
        common.iter_chain_outcomes(
            WIRA, chain[-1:], index, CONFIG, WiraConfig(), world=world
        )
    )
    # …then replay the whole chain, earliest session first, against it.
    replayed = list(
        common.iter_chain_outcomes(
            WIRA, chain, index, CONFIG, WiraConfig(), world=world
        )
    )
    expected = [
        o for o in private_world_records[WIRA] if o.spec.od.od_id == chain[0].od.od_id
    ]
    assert replayed == expected


def count_simulated(monkeypatch):
    """A list whose length counts every ``StreamingSession.run`` from here on."""
    runs = []
    run = StreamingSession.run

    def counting_run(self):
        runs.append(self.spec.trace_label)
        return run(self)

    monkeypatch.setattr(StreamingSession, "run", counting_run)
    return runs


#: The golden figure replay of ``repro.experiments.goldens``: 12 OD pairs,
#: 52 planned sessions under each of five schemes.
GOLDEN_CONFIG = DeploymentConfig(n_od_pairs=12, seed=42)
GOLDEN_SESSIONS = 5 * 52
#: Of those, the sessions that start from another scheme's start state
#: and get the same Table I answers: ``baseline`` = ``wira_hx`` and
#: ``wira_ff`` = ``wira`` with no valid cookie, ``wira_hx`` = ``wira``
#: when BDP <= FF_Size.
GOLDEN_SHARED = 37


def test_distinct_sessions_are_simulated_once(monkeypatch):
    runs = count_simulated(monkeypatch)
    records = runner.run_deployment(GOLDEN_CONFIG, LEGACY_SCHEMES, use_cache=False)
    assert sum(len(outcomes) for outcomes in records.values()) == GOLDEN_SESSIONS
    assert len(runs) == GOLDEN_SESSIONS - GOLDEN_SHARED


def test_traced_replay_shares_nothing(monkeypatch):
    """Every traced session writes its own trace file and breakdown."""
    runs = count_simulated(monkeypatch)
    with obs.tracing():
        records = runner.run_deployment(CONFIG, LEGACY_SCHEMES, use_cache=False)
    assert len(runs) == sum(len(outcomes) for outcomes in records.values())
    assert len(set(runs)) == len(runs)


def test_private_world_shares_nothing(monkeypatch):
    chains = Deployment(CONFIG).generate()
    runs = count_simulated(monkeypatch)
    for scheme in (BASELINE, WIRA_HX):
        for index, chain in enumerate(chains):
            list(common.iter_chain_outcomes(scheme, chain, index, CONFIG, WiraConfig()))
    assert len(runs) == 2 * sum(len(chain) for chain in chains)
