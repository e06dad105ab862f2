"""Algorithm and partition-count selection (the paper's Section 5 procedure).

Given two input relations and a calibrated time model, the optimizer
executes the paper's five steps verbatim:

1. determine the actual sizes of the relations;
2. determine the average set cardinalities θ_R and θ_S "using sampling or
   available statistics";
3. estimate the comparison and replication factors for DCJ and PSJ with
   the Table 7 formulas for k = 2^1 .. 2^13;
4. apply the time equation to those estimates;
5. pick the algorithm and k with the best predicted execution time.

The result carries the full candidate table so callers (and the
experiments) can inspect the prediction landscape, and
:meth:`JoinPlan.build_partitioner` turns the decision into a configured
partitioner ready to run.

Observed wall time changes a plan only through ``model``: a long-lived
installation refits c1/c2/c3 from its drift history
(:class:`repro.obs.adaptive.Recalibrator`) and plans with the refitted
model, which is the paper's own calibration procedure run again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.factors import (
    comparison_factor,
    predict_quantities,
    replication_factor,
)
from ..analysis.timemodel import TimeModel
from ..errors import ConfigurationError
from .modulo import make_partitioner
from .partitioning import Partitioner
from .sets import Relation

__all__ = [
    "CandidatePlan",
    "JoinPlan",
    "choose_plan",
    "plan_from_statistics",
]

DEFAULT_LEVELS = tuple(range(1, 14))  # k = 2^1 .. 2^13, as in the paper


@dataclass(frozen=True)
class CandidatePlan:
    """One (algorithm, k) candidate with its model estimates."""

    algorithm: str
    k: int
    comparison_factor: float
    replication_factor: float
    predicted_seconds: float


@dataclass
class JoinPlan:
    """The optimizer's decision plus the data that produced it."""

    algorithm: str
    k: int
    predicted_seconds: float
    theta_r: float
    theta_s: float
    r_size: int
    s_size: int
    candidates: list[CandidatePlan] = field(default_factory=list)

    def explain(self, top: int = 5) -> str:
        """EXPLAIN-style text: the decision plus the best-k line per
        algorithm and the closest-contending candidates."""
        lines = [
            f"set containment join: |R|={self.r_size} (θ_R≈{self.theta_r:.1f})"
            f" ⋈⊆ |S|={self.s_size} (θ_S≈{self.theta_s:.1f})",
            f"chosen: {self.algorithm} with k={self.k} "
            f"(predicted {self.predicted_seconds:.3f}s)",
        ]
        per_algorithm: dict[str, CandidatePlan] = {}
        for candidate in self.candidates:
            best = per_algorithm.get(candidate.algorithm)
            if best is None or candidate.predicted_seconds < best.predicted_seconds:
                per_algorithm[candidate.algorithm] = candidate
        for algorithm, candidate in sorted(per_algorithm.items()):
            lines.append(
                f"  best {algorithm}: k={candidate.k}, "
                f"comp={candidate.comparison_factor:.4f}, "
                f"repl={candidate.replication_factor:.2f}, "
                f"predicted {candidate.predicted_seconds:.3f}s"
            )
        contenders = sorted(
            self.candidates, key=lambda plan: plan.predicted_seconds
        )[:top]
        lines.append("  closest candidates: " + ", ".join(
            f"{plan.algorithm}(k={plan.k}, {plan.predicted_seconds:.3f}s)"
            for plan in contenders
        ))
        return "\n".join(lines)

    def prediction(
        self, model: TimeModel, algorithm: str | None = None, k: int | None = None
    ) -> dict:
        """The analytical prediction behind one (algorithm, k) choice.

        Defaults to the chosen plan; pass ``algorithm``/``k`` to inspect
        a road not taken.  Returns the absolute model quantities (x, y),
        the underlying factors, and the predicted seconds split into the
        time formula's CPU and replication terms — exactly what EXPLAIN
        prints and what the drift layer later compares against observed
        values.
        """
        algorithm = algorithm if algorithm is not None else self.algorithm
        k = k if k is not None else self.k
        quantities = predict_quantities(
            algorithm, k, self.theta_r, self.theta_s, self.r_size, self.s_size
        )
        cpu_seconds, repl_seconds = model.predict_terms(
            quantities["signature_comparisons"],
            quantities["replicated_signatures"],
            k,
        )
        quantities.update(
            algorithm=algorithm,
            k=k,
            seconds=cpu_seconds + repl_seconds,
            cpu_seconds=cpu_seconds,
            replication_seconds=repl_seconds,
        )
        return quantities

    def build_partitioner(self, seed: int = 0, family_kind: str = "bitstring") -> Partitioner:
        """Instantiate the chosen algorithm at the chosen k."""
        return make_partitioner(
            self.algorithm, self.k, self.theta_r, self.theta_s, seed,
            family_kind,
        )


def plan_from_statistics(
    r_size: int,
    s_size: int,
    theta_r: float,
    theta_s: float,
    model: TimeModel,
    algorithms: tuple[str, ...] = ("DCJ", "PSJ"),
    levels: tuple[int, ...] = DEFAULT_LEVELS,
) -> JoinPlan:
    """Steps 3-5 of the procedure, given the step 1-2 statistics.

    Useful when the inputs are disk-resident and only their statistics are
    at hand (the database layer plans this way).
    """
    if r_size < 1 or s_size < 1:
        raise ConfigurationError("cannot plan a join over an empty relation")
    if theta_r <= 0 or theta_s <= 0:
        raise ConfigurationError("relations must contain non-empty sets to plan")
    rho = s_size / r_size
    # Steps 3-4: estimate factors and predicted times over the k grid.
    candidates: list[CandidatePlan] = []
    for algorithm in algorithms:
        for level in levels:
            k = 2**level
            comp = comparison_factor(algorithm, k, theta_r, theta_s)
            repl = replication_factor(algorithm, k, theta_r, theta_s, rho)
            seconds = model.predict_factors(comp, repl, r_size, s_size, k)
            candidates.append(CandidatePlan(algorithm, k, comp, repl, seconds))
    # Step 5: pick the best.
    best = min(candidates, key=lambda plan: plan.predicted_seconds)
    return JoinPlan(
        algorithm=best.algorithm,
        k=best.k,
        predicted_seconds=best.predicted_seconds,
        theta_r=theta_r,
        theta_s=theta_s,
        r_size=r_size,
        s_size=s_size,
        candidates=candidates,
    )


def choose_plan(
    lhs: Relation,
    rhs: Relation,
    model: TimeModel,
    algorithms: tuple[str, ...] = ("DCJ", "PSJ"),
    levels: tuple[int, ...] = DEFAULT_LEVELS,
    sample_size: int | None = None,
    seed: int = 0,
) -> JoinPlan:
    """Run the five-step selection procedure on in-memory relations.

    ``sample_size`` switches step 2 from exact statistics to sampling.
    ``algorithms`` defaults to the paper's DCJ-vs-PSJ decision; add
    ``"LSJ"`` to include it (it never wins, as the paper shows).
    """
    if not lhs or not rhs:
        raise ConfigurationError("cannot plan a join over an empty relation")
    # Step 1: actual sizes.
    r_size, s_size = len(lhs), len(rhs)
    # Step 2: average cardinalities (exact or sampled).
    if sample_size is None:
        theta_r = lhs.average_cardinality()
        theta_s = rhs.average_cardinality()
    else:
        theta_r = lhs.sample_cardinality(sample_size, seed)
        theta_s = rhs.sample_cardinality(sample_size, seed + 1)
    return plan_from_statistics(
        r_size, s_size, theta_r, theta_s, model, algorithms, levels,
    )
