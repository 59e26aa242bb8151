"""Campaign engine: determinism, checkpointing, resume, and safety.

Campaigns here are deliberately tiny (a handful of chains, two
schemes) — the properties under test are structural, not statistical,
and every test replays real sessions end to end.
"""

import json
import random

import pytest

from repro import obs
from repro.core.schemes import as_spec
from repro.experiments import common
from repro.fleet import (
    CampaignAggregate,
    CampaignMismatchError,
    CheckpointState,
    FleetCampaign,
    FleetConfig,
    build_report,
    canonical_json,
    load_checkpoint,
    report_hash,
    run_campaign,
    run_chunk,
    save_checkpoint,
)
from repro.media import source
from repro.workload import DeploymentConfig, FleetPopulation

SCHEMES = ("baseline", "wira")


def small_config(**kwargs):
    defaults = dict(
        population=DeploymentConfig(n_od_pairs=6, seed=3),
        schemes=SCHEMES,
        chunk_chains=2,
        checkpoint_every=1,
    )
    defaults.update(kwargs)
    return FleetConfig(**defaults)


class TestFleetConfig:
    def test_chunk_plan_covers_population_once(self):
        config = small_config()
        assert config.n_chunks == 3
        covered = []
        for index in range(config.n_chunks):
            start, stop = config.chunk_bounds(index)
            covered.extend(range(start, stop))
        assert covered == list(range(6))

    def test_ragged_final_chunk(self):
        config = small_config(population=DeploymentConfig(n_od_pairs=5, seed=3))
        assert config.n_chunks == 3
        assert config.chunk_bounds(2) == (4, 5)

    def test_json_round_trip_preserves_key(self):
        config = small_config()
        revived = FleetConfig.from_json(json.loads(json.dumps(config.to_json())))
        assert revived == config
        assert revived.key() == config.key()

    def test_key_sensitive_to_config(self):
        config = small_config()
        assert config.key() != config.with_(sketch_alpha=0.05).key()
        other_pop = config.with_(population=DeploymentConfig(n_od_pairs=6, seed=4))
        assert config.key() != other_pop.key()

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(chunk_chains=0)
        with pytest.raises(ValueError):
            small_config(schemes=())
        with pytest.raises(ValueError):
            small_config(schemes=("not-a-scheme",))


class TestDeterminism:
    def test_serial_and_sharded_byte_identical(self):
        """The headline acceptance criterion: jobs=1 == jobs=2, down to
        the canonical JSON bytes of aggregate and report."""
        config = small_config()
        serial = run_campaign(config, jobs=1)
        sharded = run_campaign(config, jobs=2)
        assert canonical_json(serial.to_json()) == canonical_json(sharded.to_json())
        key = config.key()
        assert report_hash(build_report(serial, key)) == report_hash(
            build_report(sharded, key)
        )

    def test_chunks_pure_functions_of_index(self):
        config = small_config()
        first = run_chunk(config, 1)
        run_chunk(config, 0)  # other work must not perturb chunk 1
        assert canonical_json(run_chunk(config, 1)) == canonical_json(first)

    def test_batched_chunk_matches_serial_reference(self):
        """A chunk's aggregate against the per-chain reference
        (``iter_chain_outcomes`` with a private world per scheme and
        chain), folded here in ``(od, scheme, session)`` order, must be
        byte-identical.  (The id predates the batched kernel's removal.)"""
        config = small_config(chunk_chains=3)
        population = FleetPopulation(config.population)
        for chunk_index in range(config.n_chunks):
            reference = CampaignAggregate(config.schemes, alpha=config.sketch_alpha)
            for od_index in range(*config.chunk_bounds(chunk_index)):
                chain = population.chain(od_index)
                for value in config.schemes:
                    for outcome in common.iter_chain_outcomes(
                        as_spec(value), chain, od_index, config.population, config.wira
                    ):
                        reference.fold(value, outcome.spec, outcome.result)
            assert canonical_json(run_chunk(config, chunk_index)) == canonical_json(
                reference.to_json()
            )

    def test_sharing_a_world_across_schemes_changes_no_aggregate(self):
        """Both schemes together, in either order, and each scheme alone
        fold to the same per-scheme aggregates: the world the schemes
        share is a memo, not state."""
        config = small_config(chunk_chains=3)
        together = run_chunk(config, 1)["schemes"]
        reversed_ = run_chunk(config.with_(schemes=SCHEMES[::-1]), 1)["schemes"]
        for value in SCHEMES:
            alone = run_chunk(config.with_(schemes=(value,)), 1)["schemes"]
            assert canonical_json(together[value]) == canonical_json(alone[value])
            assert canonical_json(reversed_[value]) == canonical_json(alone[value])

    def test_report_reflects_real_sessions(self):
        config = small_config()
        total = run_campaign(config, jobs=1)
        report = build_report(total, config.key())
        assert report["total_sessions"] > 0
        for value in SCHEMES:
            scheme = report["schemes"][value]
            assert scheme["sessions"] > 0
            assert scheme["ffct"]["count"] > 0
            assert 0 < scheme["ffct"]["p50"] <= scheme["ffct"]["p99"]
        gain = report["ffct_improvement_over_baseline"]["wira"]
        assert gain is not None and "p50" in gain
        for value in SCHEMES:
            phases = report["schemes"][value]["phases"]
            assert phases["sessions"] == report["schemes"][value]["ffct"]["count"]
            assert phases["mean"]["transmit"] > 0

    def test_traced_chunk_is_the_untraced_chunk(self, monkeypatch):
        """The trace bus observes a chunk without changing a byte of it."""
        config = small_config()
        monkeypatch.setattr(obs, "ACTIVE", None)
        untraced = canonical_json(run_chunk(config, 0))
        with obs.tracing():
            traced = canonical_json(run_chunk(config, 0))
        assert traced == untraced


class TestWorldBuiltOncePerChain:
    """Exact-count guard on cross-scheme sharing.  Draw counts repeat
    exactly (wall time on a shared host does not), and the live source's
    complexity walk (one draw per GOP up to the join epoch) is most of
    them.  Every complexity and jitter value is a ``source._gauss``
    draw; the other seeded ``Random``s (a session's child generators)
    are counted at ``random.Random.seed``."""

    #: One pinned chunk: 4 chains, 2 schemes, 38 sessions.
    CONFIG = FleetConfig(
        population=DeploymentConfig(n_od_pairs=4, seed=3, video_frames_per_session=4),
        schemes=SCHEMES,
        chunk_chains=4,
    )

    @staticmethod
    def draws(monkeypatch, config):
        """``(walk draws, jitter draws, other seeds)`` of chunk 0, and its sessions."""
        counts = {"cx": 0, "jit": 0, "seed": 0}
        gauss, seed = source._gauss, random.Random.seed

        def counting_gauss(key, sigma):
            counts[key.rsplit(":", 1)[1]] += 1
            return gauss(key, sigma)

        def counting_seed(self, *args, **kwargs):
            counts["seed"] += 1
            return seed(self, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(source, "_gauss", counting_gauss)
            patch.setattr(random.Random, "seed", counting_seed)
            payload = run_chunk(config, 0)
        sessions = sum(int(s["sessions"]) for s in payload["schemes"].values())
        return (counts["cx"], counts["jit"], counts["seed"]), sessions

    def test_draws_of_pinned_chunk(self, monkeypatch):
        together, sessions = self.draws(monkeypatch, self.CONFIG)
        alone = [
            self.draws(monkeypatch, self.CONFIG.with_(schemes=(value,)))[0]
            for value in SCHEMES
        ]
        assert sessions == 38
        assert (together, alone) == ((7231, 114, 244), [(7231, 114, 126)] * 2)
        # The second scheme walks and jitters nothing again: it adds only
        # its own sessions' seeds (a world per scheme would draw 2 x 7231).
        assert together[:2] == alone[0][:2]


class TestCheckpointResume:
    def test_checkpoint_written_and_complete(self, tmp_path):
        config = small_config()
        path = tmp_path / "campaign.json"
        run_campaign(config, checkpoint_path=path, jobs=1)
        state = load_checkpoint(path)
        assert state is not None
        assert state.key == config.key()
        assert state.complete
        assert sorted(state.chunks) == [0, 1, 2]

    def test_interrupted_campaign_resumes_byte_identical(self, tmp_path):
        """Run chunk 0 only, 'crash', resume: the final aggregate must be
        byte-identical to an uninterrupted campaign."""
        config = small_config()
        path = tmp_path / "campaign.json"
        uninterrupted = run_campaign(config, jobs=1)

        # Simulate the crash: a checkpoint holding only chunk 0.
        partial = CheckpointState(
            key=config.key(),
            config=config.to_json(),
            n_chunks=config.n_chunks,
            chunks={0: run_chunk(config, 0)},
        )
        save_checkpoint(path, partial)

        seen = []
        resumed = run_campaign(
            config,
            checkpoint_path=path,
            jobs=1,
            resume=True,
            progress=lambda done, total, sessions: seen.append((done, total, sessions)),
        )
        assert canonical_json(resumed.to_json()) == canonical_json(
            uninterrupted.to_json()
        )
        # Resumed from the checkpointed chunk, whose sessions count too.
        chunk0 = CampaignAggregate.from_json(partial.chunks[0]).total_sessions
        assert seen[0] == (1, 3, chunk0)
        assert seen[-1] == (3, 3, build_report(resumed, config.key())["total_sessions"])

    def test_composed_checkpoint_is_the_canonical_encoding(self, tmp_path):
        """The engine composes its checkpoint from per-chunk texts; with
        12 chunks the indices sort as strings ("10" < "2"), and fresh,
        resumed and ``save_checkpoint`` files all equal the one-shot
        canonical encoding byte for byte."""
        config = small_config(
            population=DeploymentConfig(n_od_pairs=12, seed=3, video_frames_per_session=1),
            schemes=("baseline",),
            chunk_chains=1,
        )
        assert config.n_chunks == 12
        fresh = tmp_path / "fresh.json"
        run_campaign(config, checkpoint_path=fresh, jobs=1)
        state = load_checkpoint(fresh)
        assert state is not None and state.complete
        expected = json.dumps(state.to_json(), sort_keys=True, separators=(",", ":"))
        assert fresh.read_text(encoding="utf-8") == expected
        assert state.encode() == expected

        resumed = tmp_path / "resumed.json"
        save_checkpoint(
            resumed,
            CheckpointState(
                key=state.key,
                config=state.config,
                n_chunks=state.n_chunks,
                chunks={i: state.chunks[i] for i in (0, 2, 10)},
            ),
        )
        run_campaign(config, checkpoint_path=resumed, jobs=1, resume=True)
        assert resumed.read_text(encoding="utf-8") == expected

    def test_resume_requires_checkpoint(self, tmp_path):
        config = small_config()
        with pytest.raises(FileNotFoundError):
            run_campaign(
                config,
                checkpoint_path=tmp_path / "missing.json",
                jobs=1,
                resume=True,
            )

    def test_resume_rejects_foreign_campaign(self, tmp_path):
        """A checkpoint from a different config must never resume."""
        config = small_config()
        path = tmp_path / "campaign.json"
        foreign = CheckpointState(
            key="0" * 40,
            config=config.to_json(),
            n_chunks=config.n_chunks,
            chunks={},
        )
        save_checkpoint(path, foreign)
        with pytest.raises(CampaignMismatchError):
            run_campaign(config, checkpoint_path=path, jobs=1, resume=True)

    def test_corrupt_checkpoint_treated_as_absent(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text("{ not json", encoding="utf-8")
        assert load_checkpoint(path) is None
        # A fresh (non-resume) run just overwrites it.
        config = small_config(population=DeploymentConfig(n_od_pairs=2, seed=3))
        campaign = FleetCampaign(config, checkpoint_path=path)
        campaign.run(jobs=1)
        state = load_checkpoint(path)
        assert state is not None and state.complete

    def test_previous_format_checkpoint_treated_as_absent(self, tmp_path):
        """A checkpoint from before chunk payloads gained "phases"
        (format_version 1) is refused by the version guard — the clean
        "no usable checkpoint" path, never a KeyError while merging."""
        config = small_config()
        path = tmp_path / "campaign.json"
        chunk = run_chunk(config, 0)
        for scheme_payload in chunk["schemes"].values():
            del scheme_payload["phases"]
        payload = CheckpointState(
            key=config.key(),
            config=config.to_json(),
            n_chunks=config.n_chunks,
            chunks={0: chunk},
        ).to_json()
        payload["format_version"] = 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert load_checkpoint(path) is None

    def test_truncated_checkpoint_treated_as_absent(self, tmp_path):
        config = small_config(population=DeploymentConfig(n_od_pairs=2, seed=3))
        path = tmp_path / "campaign.json"
        run_campaign(config, checkpoint_path=path, jobs=1)
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        assert load_checkpoint(path) is None

    def test_progress_reported_monotonically(self, tmp_path):
        config = small_config(population=DeploymentConfig(n_od_pairs=4, seed=3))
        seen = []
        aggregate = run_campaign(
            config,
            jobs=1,
            progress=lambda done, total, sessions: seen.append((done, sessions)),
        )
        dones = [d for d, _ in seen]
        assert dones == sorted(dones)
        assert dones[-1] == config.n_chunks
        sessions = [s for _, s in seen]
        assert sessions == sorted(sessions)
        # The last callback counts what the report counts.
        assert sessions[-1] == build_report(aggregate, config.key())["total_sessions"]
