"""Small-sample statistics for wall-clock measurements.

Benchmark repetitions are few (3–20) and wall-time distributions are
skewed (GC pauses, scheduler noise), so normal-theory intervals are the
wrong tool; the bootstrap makes no distributional assumption and is the
standard for timing data.  Everything here is deterministic: resampling
uses a dedicated :class:`random.Random` seeded explicitly, so the same
samples always produce the same interval.

The resampling draws are exactly ``rng.randrange(n)``'s own stream, taken
in bulk: on CPython, ``randrange(n)`` takes one 32-bit Mersenne Twister
word per attempt, keeps its top ``k = n.bit_length()`` bits and rejects
values ``>= n``; :func:`_resample_means` does the same on many words at
once with numpy, so the intervals are bit-identical to the one-call-per-draw
loop at a fraction of its cost.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: resample count — enough for stable 2.5/97.5 percentiles at our n
DEFAULT_RESAMPLES = 2000

#: resample draws gathered per block; keeps the transient arrays near 1 MB
_BLOCK_DRAWS = 8192


def mean(xs: Sequence[float]) -> float:
    if not xs:
        raise ValueError("mean of empty sample")
    return sum(xs) / len(xs)


def stddev(xs: Sequence[float]) -> float:
    """Sample standard deviation (n-1); 0.0 for singleton samples."""
    if len(xs) < 2:
        return 0.0
    m = mean(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / (len(xs) - 1))


def percentile(sorted_xs: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an already-sorted sample."""
    if not sorted_xs:
        raise ValueError("percentile of empty sample")
    if len(sorted_xs) == 1:
        return sorted_xs[0]
    pos = q * (len(sorted_xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_xs) - 1)
    frac = pos - lo
    return sorted_xs[lo] * (1.0 - frac) + sorted_xs[hi] * frac


def bootstrap_ci(
    samples: Sequence[float],
    confidence: float = 0.95,
    n_resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> Tuple[float, float]:
    """Percentile-bootstrap confidence interval for the mean.

    Deterministic for a given ``(samples, confidence, n_resamples,
    seed)``.  A singleton sample has no spread information and returns a
    degenerate ``(x, x)`` interval.
    """
    if not samples:
        raise ValueError("bootstrap_ci of empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be >= 1, got {n_resamples}")
    if len(samples) == 1:
        return (samples[0], samples[0])
    means = sorted(_resample_means(samples, n_resamples, random.Random(seed)))
    alpha = (1.0 - confidence) / 2.0
    return (percentile(means, alpha), percentile(means, 1.0 - alpha))


def _resample_means(
    samples: Sequence[float], n_resamples: int, rng: random.Random
) -> List[float]:
    """``[sum(samples[rng.randrange(n)] for _ in range(n)) / n, ...]`` for
    ``n_resamples`` resamples, bit for bit, without a Python call per draw.

    Words come from ``rng.randbytes`` (little-endian, in generation order),
    are shifted and rejection-filtered as ``randrange`` would, and accepted
    draws left over from one block carry into the next.  Each mean is the
    built-in ``sum`` over the original sample objects in draw order, so the
    rounding (compensated on Python 3.12+) matches the loop exactly.  Any
    sample that fits in memory has ``n < 2**32``, so one word per attempt.
    """
    n = len(samples)
    k = n.bit_length()
    values = np.array(list(samples), dtype=object)
    rows_per_block = max(1, _BLOCK_DRAWS // n)
    carry = np.empty(0, dtype=np.uint32)
    means: List[float] = []
    while len(means) < n_resamples:
        need = min(rows_per_block, n_resamples - len(means)) * n
        draws = carry
        while draws.size < need:
            # acceptance is n / 2**k > 1/2; the slack makes a refill rare
            missing = need - draws.size
            n_words = (missing << k) // n + missing // 16 + 64
            words = np.frombuffer(rng.randbytes(4 * n_words), dtype="<u4")
            words = words >> (32 - k)
            draws = np.concatenate((draws, words[words < n]))
        drawn = values[draws[:need]].tolist()
        carry = draws[need:]
        means.extend(sum(drawn[i:i + n]) / n for i in range(0, need, n))
    return means


def intervals_overlap(a: Tuple[float, float], b: Tuple[float, float]) -> bool:
    """Whether two closed intervals share at least one point."""
    return a[0] <= b[1] and b[0] <= a[1]


@dataclass(frozen=True)
class SampleStats:
    """Mean + spread + bootstrap CI of one measured quantity."""

    n: int
    mean: float
    std: float
    min: float
    max: float
    ci_lo: float
    ci_hi: float
    confidence: float = 0.95

    @classmethod
    def from_samples(
        cls,
        samples: Sequence[float],
        confidence: float = 0.95,
        seed: int = 0,
        n_resamples: int = DEFAULT_RESAMPLES,
    ) -> "SampleStats":
        lo, hi = bootstrap_ci(
            samples, confidence=confidence, n_resamples=n_resamples, seed=seed
        )
        return cls(
            n=len(samples),
            mean=mean(samples),
            std=stddev(samples),
            min=min(samples),
            max=max(samples),
            ci_lo=lo,
            ci_hi=hi,
            confidence=confidence,
        )

    @property
    def ci(self) -> Tuple[float, float]:
        return (self.ci_lo, self.ci_hi)

    def overlaps(self, other: "SampleStats") -> bool:
        return intervals_overlap(self.ci, other.ci)

    def to_dict(self) -> Dict[str, float]:
        return {
            "n": self.n,
            "mean": self.mean,
            "std": self.std,
            "min": self.min,
            "max": self.max,
            "ci_lo": self.ci_lo,
            "ci_hi": self.ci_hi,
            "confidence": self.confidence,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "SampleStats":
        return cls(
            n=int(data["n"]),
            mean=float(data["mean"]),
            std=float(data["std"]),
            min=float(data["min"]),
            max=float(data["max"]),
            ci_lo=float(data["ci_lo"]),
            ci_hi=float(data["ci_hi"]),
            confidence=float(data.get("confidence", 0.95)),
        )
