"""Mergeable streaming aggregates: exact moments + bounded-error quantiles.

Fleet-scale campaigns (:mod:`repro.fleet`) fold millions of per-session
samples into fixed-size state instead of retaining them.  Three types
cooperate:

:class:`ExactSum`
    Order-invariant exact float summation (Shewchuk's non-overlapping
    partials, the algorithm behind :func:`math.fsum`).  Adding a value
    or merging another sum is *exact* in real arithmetic, so the rounded
    result is bit-identical no matter how samples were sharded — the
    property the fleet engine's serial == sharded guarantee rests on.

:class:`StatAccumulator`
    Count / mean / min / max built on :class:`ExactSum`.

:class:`QuantileSketch`
    A logarithmic-bucket quantile sketch (DDSketch-style, per Masson et
    al., "DDSketch: a fast and fully-mergeable quantile sketch with
    relative-error guarantees", VLDB 2019).  Samples land in geometric
    buckets ``γ^(i-1) < x <= γ^i`` with ``γ = (1+α)/(1−α)``; bucket
    counts are integers, so merging is plain addition — exactly
    associative, commutative, and shard-order invariant.

    **Error bound** (tested in ``tests/metrics/test_sketch.py``): for a
    quantile ``q``, :meth:`QuantileSketch.quantile` returns a value
    within relative error ``α`` of the exact *nearest-rank* percentile
    of the folded samples: ``|est − exact| <= α · exact``.  The P²
    algorithm the classic streaming literature reaches for was rejected
    here because its estimates depend on arrival order, which would
    break the byte-identical sharding contract.

All three serialize to plain JSON (``to_json``/``from_json``) so fleet
checkpoints survive interpreter restarts, and all three merge in O(state)
independent of sample count.

Samples must be non-negative and finite — every Wira metric folded at
fleet scale (FFCT seconds, loss rates, counts) is.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional

__all__ = [
    "DEFAULT_ALPHA",
    "ExactSum",
    "QuantileSketch",
    "StatAccumulator",
]

#: Default relative-error bound for quantile estimates: 1 %.  At α=0.01
#: a sketch spanning 1 µs .. 1 h needs ~1100 buckets — a few tens of KB,
#: constant in the number of sessions folded.
DEFAULT_ALPHA = 0.01


class ExactSum:
    """Exact, order-invariant float accumulation as a dyadic rational.

    Every IEEE-754 double is exactly ``n / 2**s`` for integers ``n``,
    ``s`` — so any *sum* of doubles is too, and Python's unbounded ints
    can carry it exactly.  The state is kept canonical (odd numerator or
    zero), which makes the serialized form — not just the rounded value
    — independent of fold and merge order: the property the fleet
    engine's serial == sharded byte-identity rests on.  ``value`` is the
    correctly-rounded sum, identical to ``math.fsum`` of the inputs.
    """

    __slots__ = ("_num", "_shift")

    def __init__(self) -> None:
        self._num: int = 0  # value == _num / 2**_shift
        self._shift: int = 0

    def _fold(self, num: int, shift: int) -> None:
        if shift > self._shift:
            self._num = (self._num << (shift - self._shift)) + num
            self._shift = shift
        else:
            self._num += num << (self._shift - shift)
        # Canonicalize: zero is (0, 0); otherwise strip the common
        # power-of-two factor so the numerator is odd.
        if self._num == 0:
            self._shift = 0
            return
        trailing = (self._num & -self._num).bit_length() - 1
        if trailing > self._shift:
            trailing = self._shift
        if trailing:
            self._num >>= trailing
            self._shift -= trailing

    def add(self, x: float) -> None:
        """Fold one (finite) value in, exactly."""
        numerator, denominator = float(x).as_integer_ratio()
        self._fold(numerator, denominator.bit_length() - 1)

    def merge(self, other: "ExactSum") -> None:
        """Fold another exact sum in; exact, so order never matters."""
        self._fold(other._num, other._shift)

    @property
    def value(self) -> float:
        """The correctly-rounded sum of everything folded so far."""
        return self._num / (1 << self._shift)

    def to_json(self) -> List[int]:
        return [self._num, self._shift]

    @classmethod
    def from_json(cls, payload: Iterable[int]) -> "ExactSum":
        numerator, shift = payload
        out = cls()
        out._fold(int(numerator), int(shift))
        return out


class StatAccumulator:
    """Exact count / mean / min / max over a stream, mergeable."""

    __slots__ = ("count", "_sum", "_min", "_max")

    def __init__(self) -> None:
        self.count: int = 0
        self._sum = ExactSum()
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def add(self, value: Optional[float]) -> None:
        """Fold a sample; ``None`` is skipped (incomplete sessions)."""
        if value is None:
            return
        value = float(value)
        self.count += 1
        self._sum.add(value)
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    def merge(self, other: "StatAccumulator") -> None:
        self.count += other.count
        self._sum.merge(other._sum)
        for bound in (other._min, other._max):
            if bound is not None:
                if self._min is None or bound < self._min:
                    self._min = bound
                if self._max is None or bound > self._max:
                    self._max = bound

    @property
    def total(self) -> float:
        return self._sum.value

    @property
    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self._sum.value / self.count

    @property
    def min(self) -> Optional[float]:
        return self._min

    @property
    def max(self) -> Optional[float]:
        return self._max

    def to_json(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self._sum.to_json(),
            "min": self._min,
            "max": self._max,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "StatAccumulator":
        out = cls()
        out.count = int(payload["count"])  # type: ignore[arg-type]
        out._sum = ExactSum.from_json(payload["sum"])  # type: ignore[arg-type]
        out._min = None if payload["min"] is None else float(payload["min"])  # type: ignore[arg-type]
        out._max = None if payload["max"] is None else float(payload["max"])  # type: ignore[arg-type]
        return out


class QuantileSketch:
    """Fixed-accuracy mergeable quantile sketch over non-negative samples.

    Bucket ``i`` covers ``(γ^(i-1), γ^i]`` with ``γ = (1+α)/(1−α)``; a
    sample maps to ``ceil(log_γ x)`` and is estimated back as the bucket
    midpoint ``2·γ^i/(γ+1)``, which is within relative error ``α`` of
    anything in the bucket.  Zeros get a dedicated exact bucket.
    """

    __slots__ = ("alpha", "_gamma", "_ln_gamma", "_bins", "_zeros", "count", "_stats")

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        self.alpha = alpha
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._ln_gamma = math.log(self._gamma)
        self._bins: Dict[int, int] = {}
        self._zeros: int = 0
        self.count: int = 0
        self._stats = StatAccumulator()

    # -- folding ----------------------------------------------------------

    def add(self, value: Optional[float]) -> None:
        """Fold a sample; ``None`` is skipped (incomplete sessions)."""
        if value is None:
            return
        value = float(value)
        if not math.isfinite(value) or value < 0.0:
            raise ValueError(f"QuantileSketch samples must be finite and >= 0, got {value!r}")
        self.count += 1
        self._stats.add(value)
        if value <= 0.0:
            self._zeros += 1
            return
        index = math.ceil(math.log(value) / self._ln_gamma)
        # Guard the bucket edge: float log can land one bucket high/low
        # right at a boundary; nudge so the invariant γ^(i-1) < x <= γ^i
        # genuinely holds and equal samples always share a bucket.
        if self._gamma ** (index - 1) >= value:
            index -= 1
        elif self._gamma ** index < value:
            index += 1
        self._bins[index] = self._bins.get(index, 0) + 1

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch in: integer bucket adds — fully exact."""
        if not math.isclose(self.alpha, other.alpha, rel_tol=0.0, abs_tol=1e-12):
            raise ValueError(
                f"cannot merge sketches with different accuracy "
                f"(alpha {self.alpha} vs {other.alpha})"
            )
        for index in sorted(other._bins):
            self._bins[index] = self._bins.get(index, 0) + other._bins[index]
        self._zeros += other._zeros
        self.count += other.count
        self._stats.merge(other._stats)

    # -- queries ----------------------------------------------------------

    @property
    def mean(self) -> Optional[float]:
        return self._stats.mean

    @property
    def min(self) -> Optional[float]:
        return self._stats.min

    @property
    def max(self) -> Optional[float]:
        return self._stats.max

    def __len__(self) -> int:
        return self.count

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (q in [0, 1]) of the folded samples.

        Nearest-rank semantics: the estimate is within relative error
        ``alpha`` of the sample at rank ``floor(q·(n−1))``.  The extreme
        ranks return the exactly-tracked min/max.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            raise ValueError("quantile of empty sketch")
        assert self._stats.min is not None and self._stats.max is not None
        if q <= 0.0:
            return self._stats.min
        if q >= 1.0:
            return self._stats.max
        rank = int(q * (self.count - 1))
        if rank < self._zeros:
            return 0.0
        seen = self._zeros
        for index in sorted(self._bins):
            seen += self._bins[index]
            if rank < seen:
                estimate = 2.0 * self._gamma**index / (self._gamma + 1.0)
                # min/max are exact; never estimate outside them.
                return min(max(estimate, self._stats.min), self._stats.max)
        return self._stats.max  # pragma: no cover - float edge

    def percentile(self, p: float) -> float:
        """Percentile flavour of :meth:`quantile` (p in [0, 100])."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("p must be in [0, 100]")
        return self.quantile(p / 100.0)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        return {
            "alpha": self.alpha,
            "zeros": self._zeros,
            "count": self.count,
            "bins": {str(i): self._bins[i] for i in sorted(self._bins)},
            "stats": self._stats.to_json(),
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "QuantileSketch":
        out = cls(alpha=float(payload["alpha"]))  # type: ignore[arg-type]
        out._zeros = int(payload["zeros"])  # type: ignore[arg-type]
        out.count = int(payload["count"])  # type: ignore[arg-type]
        bins: Mapping[str, int] = payload["bins"]  # type: ignore[assignment]
        out._bins = {int(i): int(n) for i, n in bins.items()}
        out._stats = StatAccumulator.from_json(payload["stats"])  # type: ignore[arg-type]
        return out

