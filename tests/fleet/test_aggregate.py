"""Aggregate algebra: fold/merge exactness the fleet engine relies on."""

import json
import random
from types import SimpleNamespace

import pytest

from repro.fleet.aggregate import CampaignAggregate, SchemeAggregate, merge_chunks
from repro.quic.connection import HandshakeMode


def canon(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def fake_outcome(rng):
    """A (planned, result) stand-in exposing exactly what fold() reads."""
    planned = SimpleNamespace(
        is_first_session=rng.random() < 0.3,
        handshake_mode=(
            HandshakeMode.ZERO_RTT if rng.random() < 0.9 else HandshakeMode.ONE_RTT
        ),
    )
    completed = rng.random() < 0.95
    result = SimpleNamespace(
        completed=completed,
        cookie_delivered=rng.random() < 0.8,
        used_cookie=rng.random() < 0.5,
        ffct=rng.lognormvariate(-2.0, 0.6) if completed else None,
        fflr=rng.random() * 0.1 if completed else None,
        phase_breakdown=None,  # phase folding is pinned through run_chunk
    )
    return planned, result


def folded(outcomes, alpha=0.01):
    agg = SchemeAggregate(alpha=alpha)
    for planned, result in outcomes:
        agg.fold(planned, result)
    return agg


class TestSchemeAggregate:
    def test_counters_and_stats(self):
        rng = random.Random(1)
        outcomes = [fake_outcome(rng) for _ in range(200)]
        agg = folded(outcomes)
        assert agg.sessions == 200
        assert agg.completed == sum(1 for _, r in outcomes if r.completed)
        assert agg.zero_rtt == sum(
            1 for p, _ in outcomes if p.handshake_mode == HandshakeMode.ZERO_RTT
        )
        ffcts = [r.ffct for _, r in outcomes if r.ffct is not None]
        assert agg.ffct_stats.count == len(ffcts)
        assert agg.ffct_stats.mean == pytest.approx(sum(ffcts) / len(ffcts))
        assert agg.ffct_stats.min == min(ffcts)
        assert agg.ffct_stats.max == max(ffcts)

    def test_incomplete_sessions_counted_but_not_sampled(self):
        planned = SimpleNamespace(
            is_first_session=True, handshake_mode=HandshakeMode.ONE_RTT
        )
        result = SimpleNamespace(
            completed=False, cookie_delivered=False, used_cookie=False,
            ffct=None, fflr=None, phase_breakdown=None,
        )
        agg = SchemeAggregate()
        agg.fold(planned, result)
        assert agg.sessions == 1
        assert agg.ffct_stats.count == 0
        assert agg.ffct_sketch.count == 0

    def test_merge_equals_single_fold_bitwise(self):
        """Folding a stream in parts then merging == folding it whole."""
        rng = random.Random(7)
        outcomes = [fake_outcome(rng) for _ in range(300)]
        whole = folded(outcomes)
        for split in (1, 50, 150, 299):
            left = folded(outcomes[:split])
            left.merge(folded(outcomes[split:]))
            assert canon(left.to_json()) == canon(whole.to_json())

    def test_v1_payload_without_phases_raises_value_error(self):
        """A v1-era chunk payload (no "phases" section) is refused with
        the ValueError every caller handles — never a raw KeyError.  The
        checkpoint format-version bump keeps such payloads out upstream;
        this is the defense in depth behind it."""
        rng = random.Random(2)
        payload = folded([fake_outcome(rng) for _ in range(10)]).to_json()
        del payload["phases"]
        with pytest.raises(ValueError, match="phases"):
            SchemeAggregate.from_json(payload)

    def test_json_round_trip_then_merge_bitwise(self):
        rng = random.Random(3)
        outcomes = [fake_outcome(rng) for _ in range(100)]
        whole = folded(outcomes)
        revived = SchemeAggregate.from_json(
            json.loads(json.dumps(folded(outcomes[:40]).to_json()))
        )
        revived.merge(folded(outcomes[40:]))
        assert canon(revived.to_json()) == canon(whole.to_json())


class TestCampaignAggregate:
    def make(self, seed, n=120, schemes=("baseline", "wira")):
        rng = random.Random(seed)
        agg = CampaignAggregate(schemes)
        for _ in range(n):
            scheme = schemes[rng.randrange(len(schemes))]
            planned, result = fake_outcome(rng)
            agg.fold(scheme, planned, result)
        return agg

    def test_merge_chunks_shard_order_invariant_bitwise(self):
        """Chunk merge is commutative down to the byte: even merging in
        a pool's arbitrary completion order would agree with the
        engine's fixed chunk-index order."""
        chunks = [self.make(seed).to_json() for seed in range(6)]
        reference = merge_chunks(("baseline", "wira"), 0.01, chunks)
        order_rng = random.Random(99)
        for _ in range(5):
            shuffled = chunks[:]
            order_rng.shuffle(shuffled)
            again = merge_chunks(("baseline", "wira"), 0.01, shuffled)
            assert canon(again.to_json()) == canon(reference.to_json())

    def test_merge_rejects_different_scheme_sets(self):
        a = CampaignAggregate(("baseline",))
        b = CampaignAggregate(("baseline", "wira"))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_total_sessions(self):
        agg = self.make(5, n=77)
        assert agg.total_sessions == 77

    def test_json_round_trip(self):
        agg = self.make(11)
        revived = CampaignAggregate.from_json(json.loads(json.dumps(agg.to_json())))
        assert canon(revived.to_json()) == canon(agg.to_json())
        assert revived.alpha == agg.alpha
