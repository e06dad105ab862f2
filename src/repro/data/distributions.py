"""Element-value and set-cardinality distributions for synthetic relations.

The paper generates synthetic databases following Gray et al. [GEBW94] and
evaluates the analytical model's accuracy over "five different
distributions of element values, and five distributions of set
cardinalities".  This module provides both families:

Element distributions (where in the domain a set's members fall):
    uniform, zipf, self-similar (80/20), normal (clamped), clustered.

Cardinality distributions (how large each set is):
    constant, uniform band, normal, zipf-skewed, bimodal.

All distributions draw from a ``random.Random`` passed in by the caller,
so generation is fully reproducible from a seed.
"""

from __future__ import annotations

import math
import random
from functools import partial
from typing import Sequence

from ..errors import ConfigurationError

__all__ = [
    "ElementDistribution",
    "UniformElements",
    "ZipfElements",
    "SelfSimilarElements",
    "NormalElements",
    "ClusteredElements",
    "CardinalityDistribution",
    "ConstantCardinality",
    "UniformCardinality",
    "NormalCardinality",
    "ZipfCardinality",
    "BimodalCardinality",
    "ELEMENT_DISTRIBUTIONS",
    "CARDINALITY_DISTRIBUTIONS",
    "element_distribution",
    "cardinality_distribution",
]


# ----------------------------------------------------------------------
# Element-value distributions
# ----------------------------------------------------------------------

class ElementDistribution:
    """Draws single elements from an integer domain [0, domain_size)."""

    def __init__(self, domain_size: int):
        if domain_size < 1:
            raise ConfigurationError(f"domain size must be >= 1, got {domain_size}")
        self.domain_size = domain_size

    def draw(self, rng: random.Random) -> int:
        raise NotImplementedError

    def _drawer(self, rng: random.Random):
        """:meth:`draw` from ``rng`` as a call of no arguments."""
        return partial(self.draw, rng)

    def sample_set(self, rng: random.Random, cardinality: int) -> frozenset[int]:
        """Draw a set of ``cardinality`` *distinct* elements (rejection)."""
        if cardinality > self.domain_size:
            raise ConfigurationError(
                f"cannot draw {cardinality} distinct elements from a domain "
                f"of size {self.domain_size}"
            )
        elements: set[int] = set()
        attempts = 0
        limit = 1000 * max(cardinality, 1)
        draw = self._drawer(rng)
        while len(elements) < cardinality:
            elements.add(draw())
            attempts += 1
            if attempts > limit:
                # Heavily skewed distribution on a small effective support:
                # top up uniformly so generation always terminates.
                remaining = cardinality - len(elements)
                pool = [v for v in range(self.domain_size) if v not in elements]
                elements.update(rng.sample(pool, remaining))
        return frozenset(elements)


class UniformElements(ElementDistribution):
    """Uniform over the whole domain — the analytical model's assumption."""

    name = "uniform"

    def draw(self, rng: random.Random) -> int:
        return rng.randrange(self.domain_size)

    def _drawer(self, rng: random.Random):
        """``rng.randrange(n)``'s own draws — ``getrandbits`` of ``n``'s
        bit length until one is below ``n`` — one Python call each."""
        bound, getrandbits = self.domain_size, rng.getrandbits
        bits = bound.bit_length()

        def draw() -> int:
            value = getrandbits(bits)
            while value >= bound:
                value = getrandbits(bits)
            return value
        return draw


class ZipfElements(ElementDistribution):
    """Zipf-distributed ranks: element i drawn with probability ∝ 1/(i+1)^s.

    Uses the rejection-inversion free approximation via the truncated
    harmonic CDF, accurate for the moderate skews (s ≈ 0.5..1.2) used in
    the accuracy study.
    """

    name = "zipf"

    def __init__(self, domain_size: int, skew: float = 1.0):
        super().__init__(domain_size)
        if skew <= 0:
            raise ConfigurationError(f"zipf skew must be > 0, got {skew}")
        self.skew = skew
        # Precompute the CDF in chunks to keep memory modest for big domains.
        weights = [1.0 / (rank + 1) ** skew for rank in range(domain_size)]
        total = sum(weights)
        cumulative = 0.0
        self._cdf: list[float] = []
        for weight in weights:
            cumulative += weight / total
            self._cdf.append(cumulative)

    def draw(self, rng: random.Random) -> int:
        from bisect import bisect_left

        return min(bisect_left(self._cdf, rng.random()), self.domain_size - 1)


class SelfSimilarElements(ElementDistribution):
    """Self-similar (h / 1−h) distribution of Gray et al. [GEBW94].

    With ``h = 0.2``, 80% of draws fall in the first 20% of the domain,
    recursively (the classic 80/20 rule).
    """

    name = "selfsimilar"

    def __init__(self, domain_size: int, h: float = 0.2):
        super().__init__(domain_size)
        if not 0.0 < h < 1.0:
            raise ConfigurationError(f"self-similar h must be in (0,1), got {h}")
        self.h = h
        self._exponent = math.log(h) / math.log(1.0 - h)

    def draw(self, rng: random.Random) -> int:
        u = rng.random()
        value = int(self.domain_size * u**self._exponent)
        return min(value, self.domain_size - 1)


class NormalElements(ElementDistribution):
    """Gaussian around the domain midpoint, clamped to the domain."""

    name = "normal"

    def __init__(self, domain_size: int, spread: float = 0.2):
        super().__init__(domain_size)
        if spread <= 0:
            raise ConfigurationError(f"spread must be > 0, got {spread}")
        self.mean = (domain_size - 1) / 2.0
        self.stddev = spread * domain_size

    def draw(self, rng: random.Random) -> int:
        value = int(round(rng.gauss(self.mean, self.stddev)))
        return max(0, min(self.domain_size - 1, value))


class ClusteredElements(ElementDistribution):
    """Elements drawn uniformly within one of a few hot clusters.

    Models correlated element values (e.g. genes co-activated in
    pathways): a set's members tend to share locality.
    """

    name = "clustered"

    def __init__(self, domain_size: int, num_clusters: int = 16,
                 cluster_fraction: float = 0.02):
        super().__init__(domain_size)
        if num_clusters < 1:
            raise ConfigurationError("need at least one cluster")
        width = max(1, int(domain_size * cluster_fraction))
        stride = max(1, domain_size // num_clusters)
        self._clusters = [
            (start, min(start + width, domain_size))
            for start in range(0, domain_size, stride)
        ][:num_clusters]

    def draw(self, rng: random.Random) -> int:
        lo, hi = rng.choice(self._clusters)
        return rng.randrange(lo, hi)


# ----------------------------------------------------------------------
# Set-cardinality distributions
# ----------------------------------------------------------------------

class CardinalityDistribution:
    """Draws per-tuple set cardinalities."""

    def draw(self, rng: random.Random) -> int:
        raise NotImplementedError

    def mean(self) -> float:
        """Expected cardinality (θ in the analytical model)."""
        raise NotImplementedError


class ConstantCardinality(CardinalityDistribution):
    """Every set has exactly θ elements — the model's assumption."""

    name = "constant"

    def __init__(self, theta: int):
        if theta < 0:
            raise ConfigurationError(f"cardinality must be >= 0, got {theta}")
        self.theta = theta

    def draw(self, rng: random.Random) -> int:
        return self.theta

    def mean(self) -> float:
        return float(self.theta)


class UniformCardinality(CardinalityDistribution):
    """Uniform over [lo, hi] — e.g. the case study's 45..55 and 90..110."""

    name = "uniform"

    def __init__(self, lo: int, hi: int):
        if not 0 <= lo <= hi:
            raise ConfigurationError(f"invalid cardinality band [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def draw(self, rng: random.Random) -> int:
        return rng.randint(self.lo, self.hi)

    def mean(self) -> float:
        return (self.lo + self.hi) / 2.0


class NormalCardinality(CardinalityDistribution):
    """Gaussian with floor 1 (a set is never empty unless θ really is 0)."""

    name = "normal"

    def __init__(self, mean: float, stddev: float):
        if mean <= 0 or stddev < 0:
            raise ConfigurationError("normal cardinality needs mean>0, stddev>=0")
        self._mean = mean
        self._stddev = stddev

    def draw(self, rng: random.Random) -> int:
        return max(1, int(round(rng.gauss(self._mean, self._stddev))))

    def mean(self) -> float:
        return self._mean


class ZipfCardinality(CardinalityDistribution):
    """Skewed cardinalities: most sets small, a heavy tail of large ones."""

    name = "zipf"

    def __init__(self, lo: int, hi: int, skew: float = 1.0):
        if not 1 <= lo <= hi:
            raise ConfigurationError(f"invalid cardinality band [{lo}, {hi}]")
        if skew <= 0:
            raise ConfigurationError("skew must be > 0")
        self.lo = lo
        self.hi = hi
        weights = [1.0 / (v - lo + 1) ** skew for v in range(lo, hi + 1)]
        total = sum(weights)
        cumulative = 0.0
        self._cdf = []
        for weight in weights:
            cumulative += weight / total
            self._cdf.append(cumulative)

    def draw(self, rng: random.Random) -> int:
        from bisect import bisect_left

        return self.lo + min(bisect_left(self._cdf, rng.random()),
                             self.hi - self.lo)

    def mean(self) -> float:
        return sum(
            (self.lo + index) * (self._cdf[index] - (self._cdf[index - 1] if index else 0.0))
            for index in range(len(self._cdf))
        )


class BimodalCardinality(CardinalityDistribution):
    """Mixture of two bands — e.g. short abstracts and long full texts."""

    name = "bimodal"

    def __init__(self, low: int, high: int, high_fraction: float = 0.2):
        if not 1 <= low <= high:
            raise ConfigurationError(f"invalid modes ({low}, {high})")
        if not 0.0 <= high_fraction <= 1.0:
            raise ConfigurationError("high_fraction must be in [0,1]")
        self.low = low
        self.high = high
        self.high_fraction = high_fraction

    def draw(self, rng: random.Random) -> int:
        return self.high if rng.random() < self.high_fraction else self.low

    def mean(self) -> float:
        return self.high_fraction * self.high + (1 - self.high_fraction) * self.low


# ----------------------------------------------------------------------
# Registries for the 5 x 5 accuracy study
# ----------------------------------------------------------------------

ELEMENT_DISTRIBUTIONS = ("uniform", "zipf", "selfsimilar", "normal", "clustered")
CARDINALITY_DISTRIBUTIONS = ("constant", "uniform", "normal", "zipf", "bimodal")


def element_distribution(name: str, domain_size: int) -> ElementDistribution:
    """Build one of the five named element distributions with defaults."""
    if name == "uniform":
        return UniformElements(domain_size)
    if name == "zipf":
        return ZipfElements(domain_size, skew=0.8)
    if name == "selfsimilar":
        return SelfSimilarElements(domain_size, h=0.2)
    if name == "normal":
        return NormalElements(domain_size, spread=0.2)
    if name == "clustered":
        return ClusteredElements(domain_size)
    raise ConfigurationError(f"unknown element distribution {name!r}")


def cardinality_distribution(name: str, theta: int) -> CardinalityDistribution:
    """Build one of the five named cardinality distributions around θ."""
    if name == "constant":
        return ConstantCardinality(theta)
    if name == "uniform":
        half = max(1, theta // 10)
        return UniformCardinality(max(1, theta - half), theta + half)
    if name == "normal":
        return NormalCardinality(theta, max(1.0, theta / 10.0))
    if name == "zipf":
        return ZipfCardinality(max(1, theta // 2), theta * 2, skew=1.0)
    if name == "bimodal":
        return BimodalCardinality(max(1, int(theta * 0.8)), theta * 2,
                                  high_fraction=0.2)
    raise ConfigurationError(f"unknown cardinality distribution {name!r}")
