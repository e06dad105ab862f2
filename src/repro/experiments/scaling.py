"""Scaling study: DCJ's advantage over PSJ grows with relation size.

Not a numbered figure, but the paper's central claim distilled: DCJ's
comparison savings scale with |R|·|S| while its extra replication scales
only with |R|+|S|, so for large-cardinality inputs its lead over PSJ
widens as the relations grow (the mechanism behind Figure 10's frontier).
This experiment measures both algorithms end to end over a size sweep at
the case study's cardinalities.
"""

from __future__ import annotations

from ..analysis.simulate import make_partitioner
from ..core.operator import run_disk_join
from ..data.workloads import uniform_workload
from .base import ExperimentResult, register

__all__ = ["run"]

DEFAULT_SIZES = (250, 500, 1000, 2000)
THETA_R, THETA_S = 50, 100
K = 32


@register("scaling")
def run(sizes=DEFAULT_SIZES, seed: int = 23) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="scaling",
        title=f"DCJ vs PSJ over relation sizes (θ_R={THETA_R}, "
        f"θ_S={THETA_S}, k={K})",
        columns=["|R|=|S|", "t_DCJ_s", "t_PSJ_s", "PSJ/DCJ",
                 "comparisons_DCJ", "comparisons_PSJ"],
    )
    ratios = []
    for size in sizes:
        lhs, rhs = uniform_workload(
            size, size, THETA_R, THETA_S, domain_size=10_000,
            seed=seed, planted_pairs=3,
        ).materialize()
        times = {}
        comparisons = {}
        for algorithm in ("DCJ", "PSJ"):
            partitioner = make_partitioner(algorithm, K, THETA_R, THETA_S,
                                           seed=seed)
            # Scalar loop: DCJ's lead is a saving in comparison cost.
            __, metrics = run_disk_join(
                lhs, rhs, partitioner, engine="python"
            )
            times[algorithm] = metrics.total_seconds
            comparisons[algorithm] = metrics.signature_comparisons
        ratio = times["PSJ"] / times["DCJ"]
        ratios.append(ratio)
        result.rows.append(
            {
                "|R|=|S|": size,
                "t_DCJ_s": times["DCJ"],
                "t_PSJ_s": times["PSJ"],
                "PSJ/DCJ": ratio,
                "comparisons_DCJ": comparisons["DCJ"],
                "comparisons_PSJ": comparisons["PSJ"],
            }
        )
    result.check("PSJ/DCJ time ratio grows from smallest to largest size",
                 ratios[-1] > ratios[0])
    result.paper_claims = [
        "DCJ's savings scale with |R|·|S|, its replication overhead with "
        "|R|+|S|; PSJ/DCJ time ratio should therefore grow with size "
        f"[measured ratios {['%.2f' % value for value in ratios]}]",
    ]
    return result
