"""The online adaptive initializer: purity, learning, and determinism.

The fleet-scale half of the determinism story — serial == sharded ==
kill→resume byte-identical with ``adaptive`` in the scheme mix — runs
the real campaign engine; the unit half asserts the policy itself never
draws randomness: its state is a pure function of ``(seed, observed
outcomes)``.
"""

from types import SimpleNamespace

from repro.core.config import WiraConfig
from repro.core.initializer import payload_to_wire_bytes, table1_params
from repro.core.schemes import WIRA, InitContext, as_spec, make_policy
from repro.core.transport_cookie import HxQos
from repro.experiments import common
from repro.fleet import canonical_json, run_campaign, run_chunk
from repro.fleet.engine import FleetConfig
from repro.workload.population import DeploymentConfig, FleetPopulation

CONFIG = WiraConfig()
HX = HxQos(min_rtt=0.050, max_bw_bps=8e6, timestamp=0.0)


def outcome(bw, rtt=0.05):
    return SimpleNamespace(server_max_bw=bw, server_min_rtt=rtt)


def fed_policy(observations, seed=0):
    policy = make_policy("adaptive", seed=seed)
    for obs in observations:
        policy.observe(obs)
    return policy


class TestStatePurity:
    def test_state_is_pure_function_of_seed_and_outcomes(self):
        obs = [outcome(bw) for bw in (4e6, 6e6, 2e6)]
        a = fed_policy(obs, seed=123)
        b = fed_policy(obs, seed=123)
        assert a.state_digest() == b.state_digest()
        ctx = InitContext(config=CONFIG, ff_size=66_000, hx_qos=HX)
        assert a.initial_params(ctx) == b.initial_params(ctx)

    def test_digest_sensitive_to_outcomes_and_seed(self):
        obs = [outcome(4e6), outcome(6e6)]
        base = fed_policy(obs, seed=1).state_digest()
        assert fed_policy(obs[:1], seed=1).state_digest() != base
        assert fed_policy(obs, seed=2).state_digest() != base

    def test_initial_params_is_a_pure_read(self):
        """Repeated queries must not mutate the estimator: a session may
        compute params twice between observes (provisional, then final)."""
        policy = fed_policy([outcome(4e6), outcome(6e6)])
        ctx = InitContext(config=CONFIG, ff_size=66_000, hx_qos=HX)
        before = policy.state_digest()
        first = policy.initial_params(ctx)
        assert policy.initial_params(ctx) == first
        assert policy.state_digest() == before


class TestLearning:
    def test_cold_start_matches_wira(self):
        policy = make_policy("adaptive")
        for ff, hx in ((66_000, None), (None, None)):
            got = policy.initial_params(InitContext(config=CONFIG, ff_size=ff, hx_qos=hx))
            assert got == table1_params("wira", CONFIG, ff_size=ff, hx_qos=hx)

    def test_learned_rate_caps_stale_cookie(self):
        """A cookie minted before the path drifted no longer dictates
        the pacing rate: the learned lower quantile wins the min."""
        drifted = fed_policy([outcome(2e6), outcome(2.5e6), outcome(2e6)])
        params = drifted.initial_params(
            InitContext(config=CONFIG, ff_size=66_000, hx_qos=HX)
        )
        assert params.pacing_bps < HX.max_bw_bps
        wira_params = table1_params("wira", CONFIG, ff_size=66_000, hx_qos=HX)
        assert params.pacing_bps < wira_params.pacing_bps

    def test_history_window_trims(self):
        policy = fed_policy([outcome(1e6)] * 40)
        assert len(policy._bw_bps) == 12  # DEFAULT_HISTORY

    def test_window_still_bounded_by_ff_and_bdp(self):
        policy = fed_policy([outcome(8e6), outcome(8e6)])
        params = policy.initial_params(
            InitContext(config=CONFIG, ff_size=20_000, hx_qos=HX)
        )
        assert params.cwnd_bytes == payload_to_wire_bytes(20_000)


ADAPTIVE_FLEET = FleetConfig(
    population=DeploymentConfig(n_od_pairs=6, seed=3, drift=0.5),
    schemes=("wira_hx", "adaptive"),
    chunk_chains=2,
    checkpoint_every=1,
)


class TestFleetScaleDeterminism:
    """Serial == sharded == kill→resume, with online state in play.

    These are the gates that make stateful policies safe to ship: the
    per-chain policy seeding and the chain-order observe discipline must
    hold under every execution mode the fleet engine has.
    """

    def test_serial_equals_sharded(self):
        serial = run_campaign(ADAPTIVE_FLEET, jobs=1)
        sharded = run_campaign(ADAPTIVE_FLEET, jobs=2)
        assert canonical_json(serial.to_json()) == canonical_json(sharded.to_json())

    def test_batched_equals_solo(self):
        """The block entry point the benchmark wraps hands each chain's
        policy the same observe → initial_params order as replaying the
        chains one by one, and keeps its per-chain-lists shape."""
        config = ADAPTIVE_FLEET.population
        population = FleetPopulation(config)
        chains = [population.chain(index) for index in range(config.n_od_pairs)]
        scheme = as_spec("adaptive")
        batched = common.replay_chains_wave_batched(
            scheme, chains, 0, config, ADAPTIVE_FLEET.wira
        )
        solo = [
            list(common.iter_chain_outcomes(scheme, chain, index, config, ADAPTIVE_FLEET.wira))
            for index, chain in enumerate(chains)
        ]
        assert batched == solo

    def test_kill_resume_byte_identical(self, tmp_path):
        from repro.fleet import CheckpointState, save_checkpoint

        uninterrupted = run_campaign(ADAPTIVE_FLEET, jobs=1)
        partial = CheckpointState(
            key=ADAPTIVE_FLEET.key(),
            config=ADAPTIVE_FLEET.to_json(),
            n_chunks=ADAPTIVE_FLEET.n_chunks,
            chunks={0: run_chunk(ADAPTIVE_FLEET, 0)},
        )
        path = tmp_path / "campaign.json"
        save_checkpoint(path, partial)
        resumed = run_campaign(
            ADAPTIVE_FLEET, checkpoint_path=path, jobs=1, resume=True
        )
        assert canonical_json(resumed.to_json()) == canonical_json(
            uninterrupted.to_json()
        )

    def test_figure_engine_agrees_with_itself_on_schemes(self):
        """Same chains through the figure replay twice — online state
        resets per run, so repeated runs are identical."""
        from repro.experiments.runner import run_deployment

        config = DeploymentConfig(n_od_pairs=4, seed=9, drift=0.5)
        first = run_deployment(config, [as_spec("adaptive")], use_cache=False)
        second = run_deployment(config, [as_spec("adaptive")], use_cache=False)
        rows_first = [o.result for o in first[as_spec("adaptive")]]
        rows_second = [o.result for o in second[as_spec("adaptive")]]
        assert rows_first == rows_second
        assert all(r.completed for r in rows_first)

    def test_records_addressable_by_string_and_enum(self):
        from repro.experiments.runner import run_deployment

        config = DeploymentConfig(n_od_pairs=2, seed=5)
        records = run_deployment(config, [WIRA], use_cache=False)
        assert records[WIRA] is records[as_spec("wira")]
