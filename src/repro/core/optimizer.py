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
partitioner ready to run.  :func:`resolve_plan` is the one place a join
request — ``"auto"`` or a named algorithm — becomes a :class:`JoinPlan`:
every join, EXPLAIN, ANALYZE and drift record works from the plan it
returns, priced once by :meth:`JoinPlan.prediction` and rendered once by
:meth:`JoinPlan.explain`.

Observed wall time changes a plan only through ``model``: a long-lived
installation refits c1/c2/c3 from its drift history
(:class:`repro.obs.adaptive.Recalibrator`) and plans with the refitted
model, which is the paper's own calibration procedure run again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

from ..analysis.factors import (
    comparison_factor,
    predict_quantities,
    replication_factor,
)
from ..analysis.timemodel import PAPER_TIME_MODEL, TimeModel
from ..errors import ConfigurationError
from .modulo import make_partitioner
from .partitioning import Partitioner
from .sets import Relation

__all__ = [
    "CandidatePlan",
    "JoinPlan",
    "check_algorithm",
    "choose_plan",
    "plan_from_statistics",
    "resolve_plan",
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


_ALGORITHMS = ("auto", "DCJ", "PSJ", "LSJ")


def check_algorithm(algorithm: str) -> None:
    """Raise unless ``algorithm`` names a join the library runs."""
    if algorithm not in _ALGORITHMS:
        raise ConfigurationError(
            f"algorithm must be one of {_ALGORITHMS}, got {algorithm!r}"
        )


def _partition_count(num_partitions) -> int:
    """The k of a named algorithm: 32 for ``None``; anything but a positive
    integer (a ``bool`` is not one) raises :class:`ConfigurationError`."""
    if num_partitions is None:
        return 32
    if (isinstance(num_partitions, bool)
            or not isinstance(num_partitions, Integral) or num_partitions < 1):
        raise ConfigurationError(
            f"num_partitions must be an integer >= 1, got {num_partitions!r}")
    return int(num_partitions)


@dataclass
class JoinPlan:
    """The optimizer's decision plus the data and the model that produced
    it: what a join runs, what EXPLAIN renders and what a drift record
    compares against."""

    algorithm: str
    k: int
    predicted_seconds: float
    theta_r: float
    theta_s: float
    r_size: int
    s_size: int
    candidates: list[CandidatePlan] = field(default_factory=list)
    model: TimeModel = PAPER_TIME_MODEL

    def explain(self, **options):
        """This plan's EXPLAIN report (``str()`` renders it); the options
        are :func:`~repro.obs.explain.build_plan_from_statistics`'s."""
        from ..obs.explain import build_plan_from_statistics

        return build_plan_from_statistics(self, **options)

    def prediction(self) -> dict:
        """The analytical prediction behind the chosen (algorithm, k).

        The absolute model quantities (``comparisons`` = x,
        ``replicated`` = y), the factors behind them, and the predicted
        ``seconds`` split into the time formula's ``cpu_seconds`` and
        ``replication_seconds`` terms — what EXPLAIN prints on its root
        and what the drift layer compares against observed values.
        """
        quantities = predict_quantities(
            self.algorithm, self.k, self.theta_r, self.theta_s,
            self.r_size, self.s_size,
        )
        cpu_seconds, repl_seconds = self.model.predict_terms(
            quantities["comparisons"], quantities["replicated"], self.k
        )
        return {
            "seconds": cpu_seconds + repl_seconds,
            "cpu_seconds": cpu_seconds,
            "replication_seconds": repl_seconds,
            **quantities,
        }

    def build_partitioner(self, seed: int = 0, family_kind: str = "bitstring") -> Partitioner:
        """Instantiate the chosen algorithm at the chosen k."""
        return make_partitioner(
            self.algorithm, self.k, self.theta_r, self.theta_s, seed,
            family_kind,
        )


def _candidate(algorithm, k, theta_r, theta_s, r_size, s_size, model):
    # A named algorithm still joins a stored relation that is empty.
    rho = s_size / max(r_size, 1)
    comp = comparison_factor(algorithm, k, theta_r, theta_s)
    repl = replication_factor(algorithm, k, theta_r, theta_s, rho)
    seconds = model.predict_factors(comp, repl, r_size, s_size, k)
    return CandidatePlan(algorithm, k, comp, repl, seconds)


def resolve_plan(
    algorithm: str,
    num_partitions: int | None,
    r_size: int,
    theta_r: float,
    s_size: int,
    theta_s: float,
    model: TimeModel = PAPER_TIME_MODEL,
) -> JoinPlan:
    """The one plan of a join request, given its statistics.

    ``"auto"`` runs steps 3-5 (:func:`plan_from_statistics`); a named
    algorithm is a one-candidate plan at ``num_partitions`` (default 32,
    any positive integer, else :class:`ConfigurationError` for every
    algorithm — DCJ/LSJ fold via the modulo approach when it is not a
    power of two), with θ clamped to ≥ 1 so a relation of empty sets
    still joins, priced by the same ``model``.
    """
    check_algorithm(algorithm)
    k = _partition_count(num_partitions)
    if algorithm == "auto":
        return plan_from_statistics(r_size, s_size, theta_r, theta_s, model)
    theta_r, theta_s = max(theta_r, 1.0), max(theta_s, 1.0)
    candidate = _candidate(algorithm, k, theta_r, theta_s, r_size, s_size, model)
    return JoinPlan(
        algorithm, k, candidate.predicted_seconds, theta_r, theta_s,
        r_size, s_size, [candidate], model,
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
    # Steps 3-4: estimate factors and predicted times over the k grid.
    candidates = [
        _candidate(algorithm, 2**level, theta_r, theta_s, r_size, s_size, model)
        for algorithm in algorithms
        for level in levels
    ]
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
        model=model,
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
