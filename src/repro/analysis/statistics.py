"""Relation statistics for planning and reporting.

The optimizer's step 2 determines "the average set cardinalities θ_R and
θ_S using sampling or available statistics"; this module is the
"available statistics" side: summary statistics over a relation's
set-valued attribute, computable exactly or from a sample, plus the
derived model parameters (λ, selectivity estimate, recommended signature
width) surfaced by the ``setjoins stats`` command.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from ..core.sets import Relation, take_rows
from ..errors import ConfigurationError

__all__ = ["RelationStatistics", "collect_statistics"]


@dataclass(frozen=True)
class RelationStatistics:
    """Summary of one relation's set-valued attribute."""

    name: str
    size: int
    min_cardinality: int
    max_cardinality: int
    mean_cardinality: float
    median_cardinality: float
    empty_sets: int
    distinct_elements: int
    domain_bound: int
    sampled: bool

    def describe(self) -> str:
        lines = [
            f"relation {self.name or '?'}: {self.size} tuples"
            + (" (sampled statistics)" if self.sampled else ""),
            f"  cardinality: min {self.min_cardinality}, "
            f"median {self.median_cardinality:g}, "
            f"mean {self.mean_cardinality:.2f}, max {self.max_cardinality}",
            f"  empty sets: {self.empty_sets}",
            f"  distinct elements seen: {self.distinct_elements} "
            f"(domain bound {self.domain_bound})",
        ]
        return "\n".join(lines)


def collect_statistics(
    relation: Relation,
    sample_size: int | None = None,
    seed: int = 0,
) -> RelationStatistics:
    """Compute statistics exactly, or from a uniform tuple sample."""
    if not len(relation):
        return RelationStatistics(relation.name, 0, 0, 0, 0.0, 0.0, 0, 0, 1,
                                  sampled=False)
    rows = np.arange(len(relation))
    if sample_size is not None and sample_size < 1:
        raise ConfigurationError("sample size must be >= 1")
    sampled = sample_size is not None and sample_size < len(rows)
    if sampled:
        rows = np.array(random.Random(seed).sample(range(len(rows)), sample_size))
    __, elements, offsets = take_rows(*relation.arrays, rows)
    cardinalities = np.diff(offsets)
    return RelationStatistics(
        name=relation.name,
        size=len(relation),
        min_cardinality=int(cardinalities.min()),
        max_cardinality=int(cardinalities.max()),
        mean_cardinality=int(cardinalities.sum()) / len(rows),
        median_cardinality=float(np.median(cardinalities)),
        empty_sets=int(np.count_nonzero(cardinalities == 0)),
        distinct_elements=len(np.unique(elements)),
        domain_bound=relation.domain_bound(),
        sampled=sampled,
    )
