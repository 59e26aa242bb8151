"""Sketch correctness: merge algebra, error bounds, serialization.

The fleet engine's serial == sharded byte-identity rests on three
properties proved here:

* folding and merging are **associative and commutative** — not just
  value-close but *byte-identical* through JSON serialization;
* sketch percentiles stay within the documented relative-error bound of
  the exact nearest-rank percentile on adversarial distributions;
* checkpointed (JSON round-tripped) state keeps folding identically.
"""

import json
import math
import random

import pytest

from repro.metrics.sketch import (
    DEFAULT_ALPHA,
    ExactSum,
    QuantileSketch,
    StatAccumulator,
)


def canon(obj):
    """Canonical JSON bytes — the byte-identity yardstick."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def exact_nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[int(q * (len(ordered) - 1))]


#: Adversarial sample shapes: heavy tails, constants, extreme bimodality,
#: geometric spacing across many orders of magnitude, zero-inflation.
def adversarial_distributions():
    rng = random.Random(20240806)
    return {
        "lognormal_heavy": [rng.lognormvariate(0.0, 2.5) for _ in range(5000)],
        "constant": [0.137] * 1000,
        "bimodal_extreme": [1e-6] * 500 + [1e6] * 500,
        "geometric_span": [2.0**k for k in range(-20, 21) for _ in range(25)],
        "zero_inflated": [0.0] * 400 + [rng.expovariate(3.0) for _ in range(600)],
        "tiny": [0.042],
        "two_samples": [1.0, 1000.0],
    }


class TestExactSum:
    def test_matches_fsum(self):
        rng = random.Random(7)
        values = [rng.lognormvariate(0.0, 3.0) * (-1) ** i for i, rng_ in enumerate([rng] * 500) for rng in [rng_]]
        acc = ExactSum()
        for v in values:
            acc.add(v)
        assert acc.value == math.fsum(values)

    def test_merge_order_invariant_bitwise(self):
        rng = random.Random(11)
        values = [rng.lognormvariate(0.0, 4.0) for _ in range(300)]
        # Ill-conditioned additions: huge dynamic range.
        values += [1e-12, 1e12, 3.0, 1e-300]

        def summed(order, split):
            parts = [ExactSum() for _ in range(split)]
            for i, v in enumerate(order):
                parts[i % split].add(v)
            total = ExactSum()
            for part in parts:
                total.merge(part)
            return total.value

        reference = summed(values, 1)
        shuffled = list(values)
        for split in (2, 3, 7):
            random.Random(split).shuffle(shuffled)
            assert summed(shuffled, split) == reference

    def test_json_round_trip(self):
        acc = ExactSum()
        for v in (1e16, 1.0, -1e16, 0.123):
            acc.add(v)
        clone = ExactSum.from_json(json.loads(json.dumps(acc.to_json())))
        assert clone.value == acc.value
        clone.add(2.0)
        acc.add(2.0)
        assert clone.value == acc.value


class TestStatAccumulator:
    def test_fold_and_merge(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0]
        a, b, whole = StatAccumulator(), StatAccumulator(), StatAccumulator()
        for v in values:
            whole.add(v)
        for v in values[:2]:
            a.add(v)
        for v in values[2:]:
            b.add(v)
        a.merge(b)
        assert a.count == whole.count == 5
        assert a.mean == whole.mean == math.fsum(values) / 5
        assert a.min == 1.0 and a.max == 9.0

    def test_none_skipped_and_empty(self):
        acc = StatAccumulator()
        acc.add(None)
        assert acc.count == 0
        assert acc.mean is None and acc.min is None and acc.max is None

    def test_json_round_trip_bitwise(self):
        acc = StatAccumulator()
        for v in (0.1, 0.2, 0.3):
            acc.add(v)
        clone = StatAccumulator.from_json(json.loads(json.dumps(acc.to_json())))
        assert canon(clone.to_json()) == canon(acc.to_json())


class TestQuantileSketchErrorBound:
    @pytest.mark.parametrize("name", sorted(adversarial_distributions()))
    @pytest.mark.parametrize("alpha", [DEFAULT_ALPHA, 0.05])
    def test_within_documented_bound(self, name, alpha):
        values = adversarial_distributions()[name]
        sketch = QuantileSketch(alpha)
        for v in values:
            sketch.add(v)
        for q in (0.0, 0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0):
            exact = exact_nearest_rank(values, q)
            estimate = sketch.quantile(q)
            assert abs(estimate - exact) <= alpha * exact + 1e-12, (
                f"{name}: q={q} estimate {estimate} vs exact {exact} "
                f"exceeds alpha={alpha}"
            )

    def test_extremes_are_exact(self):
        values = [5.0, 7.5, 11.0, 0.25]
        sketch = QuantileSketch()
        for v in values:
            sketch.add(v)
        assert sketch.quantile(0.0) == 0.25
        assert sketch.quantile(1.0) == 11.0
        assert sketch.min == 0.25 and sketch.max == 11.0

    def test_mean_is_exact(self):
        values = adversarial_distributions()["lognormal_heavy"]
        sketch = QuantileSketch()
        for v in values:
            sketch.add(v)
        assert sketch.mean == math.fsum(values) / len(values)

    def test_rejects_bad_samples(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.add(-1.0)
        with pytest.raises(ValueError):
            sketch.add(float("nan"))
        with pytest.raises(ValueError):
            sketch.add(float("inf"))

    def test_empty_queries_raise(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.quantile(0.5)


class TestMergeAlgebra:
    """Shard-order invariance, the property the fleet engine leans on."""

    def _sketch_of(self, values, alpha=DEFAULT_ALPHA):
        sketch = QuantileSketch(alpha)
        for v in values:
            sketch.add(v)
        return sketch

    def test_associativity_bitwise(self):
        rng = random.Random(3)
        a = self._sketch_of([rng.lognormvariate(0, 2) for _ in range(400)])
        b = self._sketch_of([rng.expovariate(0.2) for _ in range(300)])
        c = self._sketch_of([0.0] * 50 + [rng.uniform(0, 1e4) for _ in range(250)])

        left = QuantileSketch.from_json(a.to_json())
        left.merge(b)
        left.merge(c)

        bc = QuantileSketch.from_json(b.to_json())
        bc.merge(c)
        right = QuantileSketch.from_json(a.to_json())
        right.merge(bc)

        assert canon(left.to_json()) == canon(right.to_json())

    def test_commutativity_bitwise(self):
        rng = random.Random(5)
        a = self._sketch_of([rng.lognormvariate(0, 1.5) for _ in range(500)])
        b = self._sketch_of([rng.uniform(0, 10) for _ in range(500)])
        ab = QuantileSketch.from_json(a.to_json())
        ab.merge(b)
        ba = QuantileSketch.from_json(b.to_json())
        ba.merge(a)
        assert canon(ab.to_json()) == canon(ba.to_json())

    def test_shard_order_invariance_bitwise(self):
        """Any sharding, any merge order -> byte-identical state."""
        rng = random.Random(9)
        values = [rng.lognormvariate(0.0, 2.0) for _ in range(2000)]
        serial = self._sketch_of(values)

        for n_shards, order_seed in ((2, 1), (5, 2), (16, 3)):
            shards = [QuantileSketch() for _ in range(n_shards)]
            for i, v in enumerate(values):
                shards[i % n_shards].add(v)
            merge_order = list(range(n_shards))
            random.Random(order_seed).shuffle(merge_order)
            merged = QuantileSketch()
            for shard_index in merge_order:
                merged.merge(shards[shard_index])
            assert canon(merged.to_json()) == canon(serial.to_json())

    def test_merge_rejects_mismatched_alpha(self):
        with pytest.raises(ValueError, match="different accuracy"):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))

    def test_json_round_trip_then_fold_continues(self):
        """Checkpoint/resume analogue at the sketch level."""
        first = [1.0, 2.0, 3.0]
        second = [4.0, 5.0]
        straight = self._sketch_of(first + second)
        resumed = QuantileSketch.from_json(
            json.loads(json.dumps(self._sketch_of(first).to_json()))
        )
        for v in second:
            resumed.add(v)
        assert canon(resumed.to_json()) == canon(straight.to_json())
