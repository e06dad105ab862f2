"""A hybrid DCJ/PSJ algorithm (the paper's future-work direction).

Section 7: "Currently, we are trying to develop a hybrid algorithm that
combines the strengths of PSJ and DCJ."  The complementary regimes are by
set cardinality — PSJ wins on small sets, DCJ on large — so this hybrid:

1. splits both relations at a cardinality threshold τ into *small* and
   *large* halves;
2. drops the impossible quadrant (a set of cardinality ≥ τ can never be
   contained in one of cardinality < τ);
3. plans each remaining quadrant independently with the analytical
   optimizer, so small×small typically runs PSJ and the quadrants
   touching large sets run DCJ;
4. unions the three sub-join results.

This is a reproduction-original construction (the paper never specifies
its hybrid); it is evaluated against plain DCJ and PSJ in the
``ablation_hybrid`` experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median

import numpy as np

from ..analysis.timemodel import TimeModel
from ..errors import ConfigurationError
from .metrics import JoinMetrics
from .operator import run_disk_join
from .optimizer import JoinPlan, choose_plan
from .sets import Relation
from .signatures import DEFAULT_SIGNATURE_BITS

__all__ = ["HybridOutcome", "hybrid_join", "split_by_cardinality"]


def split_by_cardinality(relation: Relation, tau: int) -> tuple[Relation, Relation]:
    """Split into (cardinality < τ, cardinality >= τ), preserving tids."""
    small = np.diff(relation.arrays[2]) < tau
    parts = relation.take(np.flatnonzero(small)), relation.take(np.flatnonzero(~small))
    parts[0].name, parts[1].name = f"{relation.name}_small", f"{relation.name}_large"
    return parts


@dataclass
class HybridOutcome:
    """Result and per-quadrant decisions of one hybrid execution."""

    result: set[tuple[int, int]]
    tau: int
    quadrants: list[tuple[str, JoinPlan, JoinMetrics]] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(metrics.total_seconds for __, __, metrics in self.quadrants)

    @property
    def total_comparisons(self) -> int:
        return sum(m.signature_comparisons for __, __, m in self.quadrants)

    @property
    def total_replicated(self) -> int:
        return sum(m.replicated_signatures for __, __, m in self.quadrants)


def hybrid_join(
    lhs: Relation,
    rhs: Relation,
    model: TimeModel,
    tau: int | None = None,
    signature_bits: int = DEFAULT_SIGNATURE_BITS,
    seed: int = 0,
) -> HybridOutcome:
    """Execute the cardinality-split hybrid join.

    ``tau`` defaults to the median cardinality across both relations,
    which balances the quadrants; any positive threshold is correct.
    """
    if not lhs or not rhs:
        return HybridOutcome(result=set(), tau=tau or 1)
    if tau is None:
        cards = np.diff(lhs.arrays[2]).tolist() + np.diff(rhs.arrays[2]).tolist()
        tau = max(1, int(median(cards)))
    if tau < 1:
        raise ConfigurationError(f"threshold τ must be >= 1, got {tau}")

    r_small, r_large = split_by_cardinality(lhs, tau)
    s_small, s_large = split_by_cardinality(rhs, tau)
    quadrant_inputs = [
        ("small⋈small", r_small, s_small),
        ("small⋈large", r_small, s_large),
        ("large⋈large", r_large, s_large),
        # large⋈small is impossible: |r| >= τ > |s| forbids r ⊆ s.
    ]

    outcome = HybridOutcome(result=set(), tau=tau)
    for label, sub_r, sub_s in quadrant_inputs:
        if not len(sub_r) or not len(sub_s):
            continue
        plan = choose_plan(sub_r, sub_s, model)
        partitioner = plan.build_partitioner(seed=seed)
        result, metrics = run_disk_join(
            sub_r, sub_s, partitioner, signature_bits=signature_bits
        )
        outcome.result |= result
        outcome.quadrants.append((label, plan, metrics))
    return outcome
