"""Tests for deployment session-chain generation."""

import pytest

from repro.quic.connection import HandshakeMode
from repro.workload.population import Deployment, DeploymentConfig


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
    specs = make_deployment(n_od_pairs=400).sessions()
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
    specs = make_deployment(n_od_pairs=400).sessions()
    revisits = [s for s in specs if not s.is_first_session]
    stale = sum(1 for s in revisits if s.gap_minutes > 60.0)
    assert stale > 0
    assert stale / len(revisits) < 0.3


def test_chain_shares_od_and_stream():
    for chain in make_deployment().generate():
        assert len({spec.od.od_id for spec in chain}) == 1
        assert len({spec.stream_profile.seed for spec in chain}) == 1


def test_deterministic_generation():
    a = make_deployment(seed=9).sessions()
    b = make_deployment(seed=9).sessions()
    assert [(s.seed, s.epoch) for s in a] == [(s.seed, s.epoch) for s in b]


def test_seeds_unique_across_sessions():
    specs = make_deployment(n_od_pairs=200).sessions()
    seeds = [s.seed for s in specs]
    assert len(set(seeds)) == len(seeds)


# ---------------------------------------------------------------------------
# PR 5: streaming iteration and the index-addressable fleet population.


def test_iter_chains_matches_generate():
    """Streaming and materialized iteration are the same deployment."""
    dep = make_deployment(n_od_pairs=60, seed=11)
    assert list(dep.iter_chains()) == dep.generate()


def test_iter_chains_restarts_cleanly():
    """Each pass over the generator restarts the OD stream from scratch."""
    dep = make_deployment(n_od_pairs=40, seed=5)
    assert list(dep.iter_chains()) == list(dep.iter_chains())


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

    def test_iter_sessions_flattens_in_order(self):
        fleet = self.make_fleet(n_od_pairs=12)
        flat = list(fleet.iter_sessions())
        assert flat == [p for chain in fleet.iter_chains() for p in chain]

    def test_seeds_unique_across_fleet(self):
        fleet = self.make_fleet(n_od_pairs=200)
        seeds = [p.seed for p in fleet.iter_sessions()]
        assert len(set(seeds)) == len(seeds)

    def test_distribution_matches_deployment_statistics(self):
        """Same chain model, different seeding: summary statistics of the
        fleet flavour must stay in the deployment's calibrated bands."""
        fleet = self.make_fleet(n_od_pairs=400)
        sessions = list(fleet.iter_sessions())
        frac_0rtt = sum(
            1 for s in sessions if s.handshake_mode == HandshakeMode.ZERO_RTT
        ) / len(sessions)
        assert 0.85 < frac_0rtt < 0.95
        lengths = [len(c) for c in fleet.iter_chains()]
        assert max(lengths) <= DeploymentConfig().max_sessions_per_od
        assert min(lengths) >= 1
