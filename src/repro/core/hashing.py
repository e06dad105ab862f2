"""Monotone boolean hash functions for DCJ and LSJ partitioning.

A *monotone* boolean hash function ``h`` maps a set to {0, 1} such that
``h(x) = 1`` implies ``h(y) = 1`` for every superset ``y ⊇ x``.  Both DCJ
and LSJ partition the input relations using ``l`` such functions; the
partitioning is correct for any monotone family, and its efficiency is
governed by the functions' firing probabilities.

Two constructions from the paper are implemented:

* :class:`BitstringHashFamily` (Section 3) -- compute a ``b``-bit string by
  setting bit ``e mod b`` for each element ``e``, and let ``h_i`` fire iff
  bit ``i`` of the string is set.  For uniform elements each function fires
  with probability ``1 - (1 - 1/b)^|s|``, and choosing
  ``b = 1 / (1 - (λ/(1+λ))^{1/θ_R})`` makes that probability optimal.

* :class:`PrimeHashFamily` (Table 3 / [MGM01]) -- ``h_i`` fires iff the set
  contains an element divisible by one of a disjoint group of primes.
  The family of Table 3 (``h1={2}, h2={3}, h3={5,7}``) is available as
  :func:`paper_example_family`.

Optimality results (derived in DESIGN.md, property-tested against
simulation): the comparison factor of one DCJ/LSJ partitioning step is
``1 - q^λ + q^{1+λ}`` where ``q`` is the probability the function does
*not* fire on an R-set; it is minimized at ``q* = λ/(1+λ)``.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "BooleanHashFamily",
    "BitstringHashFamily",
    "PrimeHashFamily",
    "ExplicitHashFamily",
    "paper_example_family",
    "paper_table4_family",
    "optimal_no_fire_probability",
    "optimal_firing_probability",
    "optimal_bitstring_length",
    "step_comparison_factor",
    "make_family",
    "primes",
]


def optimal_no_fire_probability(lam: float) -> float:
    """Optimal probability q* = λ/(1+λ) that a function does NOT fire on an R-set."""
    if lam <= 0:
        raise ConfigurationError(f"cardinality ratio λ must be > 0, got {lam}")
    return lam / (1.0 + lam)


def optimal_firing_probability(lam: float) -> float:
    """Optimal firing probability 1/(1+λ) for R-sets (0.5 when λ=1)."""
    return 1.0 - optimal_no_fire_probability(lam)


def optimal_bitstring_length(theta_r: float, theta_s: float) -> float:
    """The paper's optimal bit-string length b = 1/(1-(λ/(1+λ))^(1/θ_R)).

    E.g. θ_R = 50, θ_S = 100 gives b ≈ 124, hence "up to l = 124 hash
    functions, i.e. up to k = 2^124 partitions if needed".
    """
    if theta_r <= 0 or theta_s <= 0:
        raise ConfigurationError("set cardinalities must be positive")
    lam = theta_s / theta_r
    q_star = optimal_no_fire_probability(lam)
    return 1.0 / (1.0 - q_star ** (1.0 / theta_r))


def step_comparison_factor(q: float, lam: float) -> float:
    """Comparison factor of one partitioning step: 1 - q^λ + q^(1+λ).

    ``q`` is the no-fire probability on R-sets; at ``q = λ/(1+λ)`` this
    reduces to the per-step base of Table 7's comp_DCJ.
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"probability q must be in [0,1], got {q}")
    return 1.0 - q**lam + q ** (1.0 + lam)


class BooleanHashFamily:
    """Interface: a fixed ordered family of monotone boolean hash functions."""

    num_functions: int

    def evaluate(self, elements: Iterable[int]) -> int:
        """Return a bitmask; bit ``i`` is the value of ``h_{i+1}`` on the set.

        Monotonicity guarantee: ``evaluate(x) & ~evaluate(y) == 0`` whenever
        ``x ⊆ y`` (a superset can only turn more functions on).
        """
        raise NotImplementedError

    def evaluate_one(self, index: int, elements: Iterable[int]) -> bool:
        """Value of the single function ``h_{index+1}``."""
        if not 0 <= index < self.num_functions:
            raise ConfigurationError(
                f"function index {index} out of range 0..{self.num_functions - 1}"
            )
        return bool((self.evaluate(elements) >> index) & 1)

    def evaluate_batch(self, elements: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """:meth:`evaluate` for a columnar batch of sets (set ``i`` is
        ``elements[offsets[i]:offsets[i + 1]]``): an ``(n, num_functions)``
        boolean matrix, column ``i`` the value of ``h_{i+1}``.

        This default evaluates set by set; a family overrides it where the
        whole batch can be evaluated with array operations.
        """
        flat, bounds = elements.tolist(), offsets.tolist()
        masks = [
            self.evaluate(flat[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
        ]
        return np.array(
            [[(mask >> index) & 1 for index in range(self.num_functions)]
             for mask in masks],
            dtype=bool,
        ).reshape(len(masks), self.num_functions)


class BitstringHashFamily(BooleanHashFamily):
    """The Section 3 construction: b-bit strings, one function per chosen bit.

    ``indices`` selects which ``l`` of the ``b`` available bit positions are
    used, in order.  When omitted, positions are spread evenly over
    ``0..b-1`` (spreading avoids accidental correlation with small-domain
    inputs; with uniform elements any choice is equivalent).
    """

    def __init__(self, bitstring_length: int, indices: Sequence[int] | None = None,
                 num_functions: int | None = None):
        if bitstring_length < 1:
            raise ConfigurationError(
                f"bit-string length must be >= 1, got {bitstring_length}"
            )
        self.bitstring_length = bitstring_length
        if indices is None:
            count = num_functions if num_functions is not None else bitstring_length
            if count > bitstring_length:
                raise ConfigurationError(
                    f"cannot pick {count} functions from a {bitstring_length}-bit string"
                )
            stride = bitstring_length / count
            indices = [int(i * stride) for i in range(count)]
        unique = list(dict.fromkeys(indices))
        if len(unique) != len(indices):
            raise ConfigurationError("duplicate bit positions in hash family")
        for position in unique:
            if not 0 <= position < bitstring_length:
                raise ConfigurationError(
                    f"bit position {position} outside 0..{bitstring_length - 1}"
                )
        self.indices = list(indices)
        self.num_functions = len(self.indices)

    @classmethod
    def optimal(
        cls, theta_r: float, theta_s: float, num_functions: int
    ) -> "BitstringHashFamily":
        """Family with the optimal bit-string length for (θ_R, θ_S)."""
        length = max(num_functions, round(optimal_bitstring_length(theta_r, theta_s)))
        return cls(length, num_functions=num_functions)

    def firing_probability(self, cardinality: int) -> float:
        """P(h_i fires) for a random set of the given cardinality."""
        return 1.0 - (1.0 - 1.0 / self.bitstring_length) ** cardinality

    def evaluate(self, elements: Iterable[int]) -> int:
        bitstring = 0
        for element in elements:
            bitstring |= 1 << (element % self.bitstring_length)
        mask = 0
        for out_bit, position in enumerate(self.indices):
            if (bitstring >> position) & 1:
                mask |= 1 << out_bit
        return mask

    def evaluate_batch(self, elements: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        # One lookup table, bit position -> function (or none), replaces
        # the per-set bit string and the per-function probe of it.
        function_at = np.full(self.bitstring_length, -1, dtype=np.intp)
        function_at[self.indices] = np.arange(self.num_functions)
        functions = function_at[
            (elements % self.bitstring_length).astype(np.intp)
        ]
        rows = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
        fired = np.zeros((len(offsets) - 1, self.num_functions), dtype=bool)
        chosen = functions >= 0
        fired[rows[chosen], functions[chosen]] = True
        return fired


class PrimeHashFamily(BooleanHashFamily):
    """The Table 3 construction: h_i fires iff some element is divisible by
    one of a disjoint group of primes."""

    def __init__(self, prime_groups: Sequence[Sequence[int]]):
        if not prime_groups:
            raise ConfigurationError("need at least one prime group")
        seen: set[int] = set()
        for group in prime_groups:
            if not group:
                raise ConfigurationError("empty prime group")
            for prime in group:
                if prime < 2:
                    raise ConfigurationError(f"invalid prime {prime}")
                if prime in seen:
                    raise ConfigurationError(
                        f"prime {prime} appears in more than one group; "
                        "groups must be disjoint for independence"
                    )
                seen.add(prime)
        self.prime_groups = [tuple(group) for group in prime_groups]
        self.num_functions = len(self.prime_groups)

    @classmethod
    def with_target_probability(
        cls, theta_r: float, num_functions: int, firing_probability: float
    ) -> "PrimeHashFamily":
        """Build groups of consecutive primes sized so each function fires
        with roughly the requested probability on a θ_R-element set.

        An element is divisible by prime p with probability ~1/p, so a set
        misses a group G with probability ``(1 - Σ_{p∈G} 1/p)^θ_R``; primes
        are accumulated until the group's firing probability reaches the
        target.  This is the [MGM01] "disjoint sets of primes" alternative
        to the bit-string construction.
        """
        if not 0.0 < firing_probability < 1.0:
            raise ConfigurationError("target firing probability must be in (0,1)")
        # Per-element miss rate needed so that a θ_R-element set fires with
        # the target probability: miss* = (1 - p*)^(1/θ_R).  Small primes
        # fire far too often (p=2 alone fires for almost every set), so
        # groups only use primes large enough that one prime does not
        # overshoot, accumulating until the target is reached.
        target_miss = (1.0 - firing_probability) ** (1.0 / theta_r)
        min_prime = max(3, math.ceil(1.0 / (1.0 - target_miss)))
        groups: list[list[int]] = []
        stream = primes()
        prime = next(stream)
        while prime < min_prime:
            prime = next(stream)

        def fire(miss_per_element: float) -> float:
            return 1.0 - max(miss_per_element, 0.0) ** theta_r

        for __ in range(num_functions):
            group: list[int] = []
            miss = 1.0
            while True:
                miss_with = miss - 1.0 / prime
                overshoots = fire(miss_with) >= firing_probability
                if overshoots and group:
                    # Keep whichever side of the target is closer; an
                    # unconsumed prime seeds the next group (disjointness).
                    with_error = abs(fire(miss_with) - firing_probability)
                    without_error = abs(fire(miss) - firing_probability)
                    if without_error <= with_error:
                        break
                group.append(prime)
                miss = miss_with
                prime = next(stream)
                if overshoots:
                    break
            groups.append(group)
        return cls(groups)

    def firing_probability(self, index: int, cardinality: int) -> float:
        """Estimated P(h_{index+1} fires) on a random set of this cardinality."""
        miss = 1.0
        for prime in self.prime_groups[index]:
            miss -= 1.0 / prime
        return 1.0 - max(miss, 0.0) ** cardinality

    def evaluate(self, elements: Iterable[int]) -> int:
        mask = 0
        full = (1 << self.num_functions) - 1
        for element in elements:
            for index, group in enumerate(self.prime_groups):
                if not (mask >> index) & 1 and any(
                    element % prime == 0 for prime in group
                ):
                    mask |= 1 << index
            if mask == full:
                break
        return mask


class ExplicitHashFamily(BooleanHashFamily):
    """A family defined by an explicit set → mask table.

    Used by the worked-example reproduction to pin the exact hash values
    printed in the paper's Table 4 (which contains a typo: by Table 3's
    definition ``h3`` fires for ``b = {10, 13}`` since 10 is divisible by
    5, but the table — and therefore Figure 2's counts — lists 0).
    The caller is responsible for the table being monotone.
    """

    def __init__(self, table: dict[frozenset[int], int], num_functions: int):
        if num_functions < 1:
            raise ConfigurationError("need at least one hash function")
        self.table = {frozenset(key): mask for key, mask in table.items()}
        self.num_functions = num_functions

    def evaluate(self, elements: Iterable[int]) -> int:
        key = frozenset(elements)
        if key not in self.table:
            raise ConfigurationError(f"set {sorted(key)} not in explicit hash table")
        return self.table[key]


def paper_example_family() -> PrimeHashFamily:
    """Table 3's family: h1 = {2}, h2 = {3}, h3 = {5, 7}."""
    return PrimeHashFamily([(2,), (3,), (5, 7)])


def paper_table4_family() -> ExplicitHashFamily:
    """The exact hash values printed in Table 4 for the running example.

    Differs from evaluating :func:`paper_example_family` in one entry —
    the paper's typo for set ``b`` (see :class:`ExplicitHashFamily`) —
    and is what reproduces Figure 2's counts of 8 comparisons and
    14 replicated signatures verbatim.
    """
    return ExplicitHashFamily(
        {
            frozenset({1, 5}): 0b100,      # a: h1=0 h2=0 h3=1
            frozenset({10, 13}): 0b001,    # b: h1=1 h2=0 h3=0 (paper's value)
            frozenset({1, 3}): 0b010,      # c: h1=0 h2=1 h3=0
            frozenset({8, 19}): 0b001,     # d: h1=1 h2=0 h3=0
            frozenset({1, 5, 7}): 0b100,   # A: h1=0 h2=0 h3=1
            frozenset({8, 10, 13}): 0b101, # B: h1=1 h2=0 h3=1
            frozenset({1, 3, 13}): 0b010,  # C: h1=0 h2=1 h3=0
            frozenset({2, 3, 4}): 0b011,   # D: h1=1 h2=1 h3=0
        },
        num_functions=3,
    )


def primes() -> Iterator[int]:
    """Yield primes 2, 3, 5, ... (incremental trial division)."""
    found: list[int] = []
    candidate = 2
    while True:
        limit = math.isqrt(candidate)
        if all(p > limit or candidate % p for p in found):
            found.append(candidate)
            yield candidate
        candidate += 1 if candidate == 2 else 2


def make_family(
    kind: str,
    num_functions: int,
    theta_r: float,
    theta_s: float,
) -> BooleanHashFamily:
    """Factory for the two hash-function constructions.

    ``kind`` is ``"bitstring"`` (default choice everywhere in the paper's
    experiments) or ``"primes"``.
    """
    if num_functions < 1:
        raise ConfigurationError("need at least one hash function")
    if kind == "bitstring":
        return BitstringHashFamily.optimal(theta_r, theta_s, num_functions)
    if kind == "primes":
        lam = theta_s / theta_r
        return PrimeHashFamily.with_target_probability(
            theta_r, num_functions, optimal_firing_probability(lam)
        )
    raise ConfigurationError(f"unknown hash family kind {kind!r}")
