"""In-memory partitioning simulation for validating the analytical model.

The paper's Section 4 accuracy study compares the Table 7 formulas against
"simulations" over varied element and cardinality distributions, without
running the full disk operator.  This module does the same: it partitions
in-memory relations with a real partitioner and reports the *measured*
comparison and replication factors alongside the analytical predictions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.modulo import make_partitioner
from ..core.partitioning import PartitionAssignment
from ..core.sets import Relation
from ..errors import ConfigurationError
from .factors import comparison_factor, replication_factor

__all__ = [
    "FactorObservation",
    "make_partitioner",
    "simulate_factors",
    "monte_carlo_selectivity",
]


@dataclass(frozen=True)
class FactorObservation:
    """Measured vs. predicted factors for one (algorithm, k, workload)."""

    algorithm: str
    k: int
    measured_comparison: float
    measured_replication: float
    predicted_comparison: float
    predicted_replication: float

    @property
    def comparison_error(self) -> float:
        """Relative error of the comparison-factor prediction."""
        if self.measured_comparison == 0:
            return 0.0
        return abs(self.predicted_comparison - self.measured_comparison) / (
            self.measured_comparison
        )

    @property
    def replication_error(self) -> float:
        """Relative error of the replication-factor prediction."""
        if self.measured_replication == 0:
            return 0.0
        return abs(self.predicted_replication - self.measured_replication) / (
            self.measured_replication
        )


def simulate_factors(
    algorithm: str,
    lhs: Relation,
    rhs: Relation,
    k: int,
    seed: int = 0,
    family_kind: str = "bitstring",
    theta_r: float | None = None,
    theta_s: float | None = None,
) -> FactorObservation:
    """Partition real relations and compare measured factors to Table 7.

    ``theta_r`` / ``theta_s`` override the cardinalities used for the
    *predictions* (defaults: the relations' measured averages), which is
    how the accuracy study evaluates the formulas on data that violates
    the fixed-cardinality assumption.
    """
    theta_r = theta_r if theta_r is not None else lhs.average_cardinality()
    theta_s = theta_s if theta_s is not None else rhs.average_cardinality()
    partitioner = make_partitioner(algorithm, k, theta_r, theta_s, seed, family_kind)
    assignment = PartitionAssignment.compute(partitioner, lhs, rhs)
    rho = len(rhs) / len(lhs) if len(lhs) else 1.0
    return FactorObservation(
        algorithm=algorithm,
        k=k,
        measured_comparison=assignment.comparison_factor,
        measured_replication=assignment.replication_factor,
        predicted_comparison=comparison_factor(algorithm, k, theta_r, theta_s),
        predicted_replication=replication_factor(algorithm, k, theta_r, theta_s, rho),
    )


def monte_carlo_selectivity(
    theta_r: int,
    theta_s: int,
    domain_size: int,
    trials: int = 10_000,
    seed: int = 0,
) -> float:
    """Empirical P(r ⊆ s) for random fixed-cardinality sets."""
    if theta_s > domain_size:
        raise ConfigurationError("θ_S cannot exceed the domain size")
    rng = random.Random(seed)
    domain = range(domain_size)
    hits = 0
    for __ in range(trials):
        r = set(rng.sample(domain, theta_r))
        s = set(rng.sample(domain, theta_s))
        if r <= s:
            hits += 1
    return hits / trials
