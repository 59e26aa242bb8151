"""A chain world is a memo: sharing it across schemes changes nothing.

Every scheme of the paired A/B replays one OD pair against one
:class:`~repro.experiments.common.ChainWorld`.  The reference these
tests compare against is the replay it replaced — one private world per
(scheme, chain), which is what ``iter_chain_outcomes`` builds when
handed none.
"""

import pytest

from repro import obs
from repro.core.config import WiraConfig
from repro.core.schemes import BASELINE, WIRA
from repro.experiments import common, runner
from repro.workload.population import Deployment, DeploymentConfig

SCHEMES = (BASELINE, WIRA)
CONFIG = DeploymentConfig(n_od_pairs=5, seed=23, video_frames_per_session=6)


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
        assert records[scheme] == private_world_records[scheme]


def test_scheme_order_does_not_matter(private_world_records):
    """Whichever scheme replays a chain first pays for the walk; none of
    them sees a different world for it."""
    records = runner.run_deployment(
        CONFIG, tuple(reversed(SCHEMES)), use_cache=False, jobs=1
    )
    for scheme in SCHEMES:
        assert records[scheme] == private_world_records[scheme]


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
