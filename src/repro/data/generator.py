"""Seeded synthetic relation generation.

Builds in-memory :class:`repro.core.sets.Relation` objects from an element
distribution and a cardinality distribution.  Since uniform random sets
from a large domain almost never join (the paper's selectivity analysis),
:func:`generate_join_pair` can additionally *plant* containment pairs —
each planted R-set is sampled from inside a chosen S-set — to exercise
the verification phase and make result sizes controllable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
import numpy as np

from ..core.sets import Relation, join_batches, take_rows
from ..errors import ConfigurationError
from .distributions import (
    CardinalityDistribution,
    ConstantCardinality,
    ElementDistribution,
    UniformCardinality,
    UniformElements,
)

__all__ = ["RelationSpec", "generate_relation", "generate_join_pair"]


@dataclass(frozen=True)
class RelationSpec:
    """Recipe for one synthetic relation."""

    size: int
    cardinality: CardinalityDistribution
    elements: ElementDistribution
    name: str = ""

    @classmethod
    def uniform(
        cls,
        size: int,
        theta: int,
        domain_size: int,
        name: str = "",
        band: tuple[int, int] | None = None,
    ) -> "RelationSpec":
        """Uniform elements with constant cardinality θ (or a [lo, hi] band)."""
        cardinality: CardinalityDistribution
        if band is None:
            cardinality = ConstantCardinality(theta)
        else:
            cardinality = UniformCardinality(*band)
        return cls(size, cardinality, UniformElements(domain_size), name)


def generate_relation(spec: RelationSpec, seed: int = 0, start_tid: int = 0) -> Relation:
    """Materialize one relation from its spec, reproducibly: each set is
    drawn and goes into the relation's arrays, a batch at a time."""
    if spec.size < 0:
        raise ConfigurationError(f"relation size must be >= 0, got {spec.size}")
    rng = random.Random(seed)
    return Relation(
        (
            (start_tid + offset,
             spec.elements.sample_set(rng, spec.cardinality.draw(rng)))
            for offset in range(spec.size)
        ),
        spec.name,
    )


def generate_join_pair(
    r_spec: RelationSpec,
    s_spec: RelationSpec,
    seed: int = 0,
    planted_pairs: int = 0,
) -> tuple[Relation, Relation]:
    """Generate (R, S) with ``planted_pairs`` guaranteed containments.

    Planting rewrites the first ``planted_pairs`` R-tuples to be random
    subsets of distinct S-tuples (cardinalities still drawn from R's
    distribution, clamped to the host set's size), so the join result has
    at least that many tuples regardless of domain size.
    """
    rng = random.Random(seed)
    lhs = generate_relation(r_spec, seed=rng.randrange(2**31))
    rhs = generate_relation(s_spec, seed=rng.randrange(2**31))
    if planted_pairs == 0:
        return lhs, rhs
    if planted_pairs > min(len(lhs), len(rhs)):
        raise ConfigurationError(
            f"cannot plant {planted_pairs} pairs into relations of sizes "
            f"{len(lhs)} and {len(rhs)}"
        )
    tids, __, r_offsets = lhs.arrays
    __, elements, offsets = rhs.arrays
    planted = []
    # Hosts are positions, drawn as sampling S's tids draws them.
    for row, host in enumerate(rng.sample(range(len(rhs)), planted_pairs)):
        members = elements[offsets[host] : offsets[host + 1]].tolist()
        want = min(int(r_offsets[row + 1] - r_offsets[row]), len(members))
        planted.append((int(tids[row]), rng.sample(members, max(1, want))))
    rest = take_rows(*lhs.arrays, np.arange(planted_pairs, len(lhs)))
    return Relation.from_arrays(
        *join_batches([Relation(planted).arrays, rest]), lhs.name), rhs
