"""Tests for deployment session-chain generation."""

import pytest

from repro.quic.connection import HandshakeMode
from repro.workload.population import Deployment, DeploymentConfig


def flat(chains):
    return [spec for chain in chains for spec in chain]


def make_deployment(**kwargs):
    defaults = dict(n_od_pairs=100, seed=3)
    defaults.update(kwargs)
    return Deployment(DeploymentConfig(**defaults))


def test_config_validation():
    with pytest.raises(ValueError):
        DeploymentConfig(n_od_pairs=0)
    with pytest.raises(ValueError):
        DeploymentConfig(p_zero_rtt=1.5)


def test_one_chain_per_od_pair():
    chains = make_deployment().generate()
    assert len(chains) == 100
    assert all(chain for chain in chains)


def test_chain_epochs_monotone():
    for chain in make_deployment().generate():
        epochs = [spec.epoch for spec in chain]
        assert epochs == sorted(epochs)


def test_first_session_flagged():
    for chain in make_deployment().generate():
        assert chain[0].is_first_session
        assert all(not spec.is_first_session for spec in chain[1:])


def test_zero_rtt_fraction_near_ninety_percent():
    specs = flat(make_deployment(n_od_pairs=400).generate())
    frac = sum(1 for s in specs if s.handshake_mode == HandshakeMode.ZERO_RTT) / len(specs)
    assert 0.85 < frac < 0.95


def test_chain_lengths_bounded_and_varied():
    chains = make_deployment(n_od_pairs=300).generate()
    lengths = [len(c) for c in chains]
    assert max(lengths) <= DeploymentConfig().max_sessions_per_od
    assert min(lengths) >= 1
    assert len(set(lengths)) > 1


def test_gaps_include_stale_tail():
    """Some revisit gaps must exceed Δ=60min to exercise corner case 2."""
    specs = flat(make_deployment(n_od_pairs=400).generate())
    revisits = [s for s in specs if not s.is_first_session]
    stale = sum(1 for s in revisits if s.gap_minutes > 60.0)
    assert stale > 0
    assert stale / len(revisits) < 0.3


def test_chain_shares_od_and_stream():
    for chain in make_deployment().generate():
        assert len({spec.od.od_id for spec in chain}) == 1
        assert len({spec.stream_profile.seed for spec in chain}) == 1


def test_deterministic_generation():
    a = flat(make_deployment(seed=9).generate())
    b = flat(make_deployment(seed=9).generate())
    assert [(s.seed, s.epoch) for s in a] == [(s.seed, s.epoch) for s in b]


def test_seeds_unique_across_sessions():
    specs = flat(make_deployment(n_od_pairs=200).generate())
    seeds = [s.seed for s in specs]
    assert len(set(seeds)) == len(seeds)


# ---------------------------------------------------------------------------
# Range generation and the index-addressable fleet population.


def test_generate_range_slices_generate():
    """A range regenerates exactly its slice of the whole deployment."""
    dep = make_deployment(n_od_pairs=60, seed=11)
    assert dep.generate_range(10, 35) == dep.generate()[10:35]


def test_generate_restarts_cleanly():
    """Each call restarts the OD stream from scratch."""
    dep = make_deployment(n_od_pairs=40, seed=5)
    assert dep.generate() == dep.generate()


class TestFleetPopulation:
    def make_fleet(self, **kwargs):
        from repro.workload.population import FleetPopulation

        defaults = dict(n_od_pairs=50, seed=7)
        defaults.update(kwargs)
        return FleetPopulation(DeploymentConfig(**defaults))

    def test_random_access_matches_iteration(self):
        fleet = self.make_fleet()
        iterated = list(fleet.iter_chains())
        assert [fleet.chain(i) for i in range(50)] == iterated

    def test_chain_independent_of_access_order(self):
        """chain(i) is a pure function of (seed, i): reading other chains
        first must not perturb it — the property sharding relies on."""
        fleet = self.make_fleet()
        direct = fleet.chain(17)
        fleet.chain(3)
        fleet.chain(42)
        assert fleet.chain(17) == direct
        assert self.make_fleet().chain(17) == direct

    def test_partial_range_iteration(self):
        fleet = self.make_fleet()
        whole = list(fleet.iter_chains())
        assert list(fleet.iter_chains(10, 20)) == whole[10:20]

    def test_od_ids_are_indices(self):
        fleet = self.make_fleet()
        for i in (0, 13, 49):
            chain = fleet.chain(i)
            assert all(planned.od.od_id == i for planned in chain)

    def test_out_of_range_raises(self):
        fleet = self.make_fleet()
        with pytest.raises(IndexError):
            fleet.chain(50)
        with pytest.raises(IndexError):
            fleet.chain(-1)

    def test_seeds_unique_across_fleet(self):
        fleet = self.make_fleet(n_od_pairs=200)
        seeds = [p.seed for p in flat(fleet.iter_chains())]
        assert len(set(seeds)) == len(seeds)

    def test_distribution_matches_deployment_statistics(self):
        """Same chain model, different seeding: summary statistics of the
        fleet flavour must stay in the deployment's calibrated bands."""
        fleet = self.make_fleet(n_od_pairs=400)
        sessions = flat(fleet.iter_chains())
        frac_0rtt = sum(
            1 for s in sessions if s.handshake_mode == HandshakeMode.ZERO_RTT
        ) / len(sessions)
        assert 0.85 < frac_0rtt < 0.95
        lengths = [len(c) for c in fleet.iter_chains()]
        assert max(lengths) <= DeploymentConfig().max_sessions_per_od
        assert min(lengths) >= 1
