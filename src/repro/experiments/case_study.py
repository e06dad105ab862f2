"""The Section 5 case study: Figures 8 and 9.

Runs the disk-based operator on the paper's workload (|R| = |S| = 10000,
θ_R = 50, θ_S = 100, element domain 10000, uniform cardinality bands
45..55 and 90..110) over a sweep of partition counts, reporting the
partitioning/joining/verification time split.

``scale`` shrinks the relation sizes (default 0.2 → 2000 tuples each) so
the sweep finishes quickly in pure Python; run with ``scale=1.0`` for the
paper's exact sizes.  ``repeats`` averages multiple cold-cache runs, as
the paper averages five.

The comparison engine is the pure-Python loop: its per-comparison cost
relative to page I/O approximates the paper's 600 MHz testbed, which is
what gives Figures 8/9 their shape (an interior optimal k for DCJ, PSJ
dominated by partitioning overhead).  The blocked ``"numpy"`` kernel
makes comparisons nearly free, compressing the CPU side of the trade-off.
"""

from __future__ import annotations

from ..analysis.simulate import make_partitioner
from ..core.operator import run_disk_join
from ..data.workloads import case_study as case_study_workload
from .base import ExperimentResult, register

__all__ = ["sweep_partition_counts", "run_fig8", "run_fig9"]

DCJ_K_VALUES = (2, 4, 8, 16, 32, 64, 128, 256)
PSJ_K_VALUES = (2, 4, 8, 16, 32, 64, 128, 256)
THETA_R, THETA_S = 50, 100


def sweep_partition_counts(
    algorithm: str,
    k_values,
    scale: float = 0.2,
    repeats: int = 1,
    seed: int = 7,
    buffer_pages: int = 256,
) -> list[dict]:
    """Execute the case-study join for each k; returns metric rows."""
    workload = case_study_workload(scale=scale, seed=seed)
    lhs, rhs = workload.materialize()
    rows = []
    for k in k_values:
        totals = {"partition": 0.0, "join": 0.0, "verify": 0.0}
        last_metrics = None
        for repeat in range(repeats):
            partitioner = make_partitioner(
                algorithm, k, THETA_R, THETA_S, seed=seed + repeat
            )
            # Scalar loop: Figures 8/9 need a compare-dominant cost structure.
            __, metrics = run_disk_join(
                lhs, rhs, partitioner, engine="python",
                buffer_pages=buffer_pages,
            )
            totals["partition"] += metrics.partitioning.seconds
            totals["join"] += metrics.joining.seconds
            totals["verify"] += metrics.verification.seconds
            last_metrics = metrics
        assert last_metrics is not None
        rows.append(
            {
                "k": k,
                "t_partition_s": totals["partition"] / repeats,
                "t_join_s": totals["join"] / repeats,
                "t_verify_s": totals["verify"] / repeats,
                "t_total_s": sum(totals.values()) / repeats,
                "comparisons": last_metrics.signature_comparisons,
                "comp_factor": last_metrics.comparison_factor,
                "replicated": last_metrics.replicated_signatures,
                "repl_factor": last_metrics.replication_factor,
                "page_reads": last_metrics.total_page_reads,
                "page_writes": last_metrics.total_page_writes,
                "results": last_metrics.result_size,
            }
        )
    return rows


_COLUMNS = [
    "k", "t_partition_s", "t_join_s", "t_verify_s", "t_total_s",
    "comp_factor", "repl_factor", "page_reads", "page_writes", "results",
]


@register("fig8")
def run_fig8(scale: float = 0.2, repeats: int = 1,
             seed: int = 7) -> ExperimentResult:
    """DCJ execution time vs k — the U-shaped curve with an interior optimum."""
    rows = sweep_partition_counts("DCJ", DCJ_K_VALUES, scale, repeats, seed)
    best = min(rows, key=lambda row: row["t_total_s"])
    result = ExperimentResult(
        experiment_id="fig8",
        title=f"DCJ time vs k — case study at scale {scale:g}",
        columns=_COLUMNS,
        rows=rows,
    )
    comparisons = [row["comparisons"] for row in rows]
    replicated = [row["replicated"] for row in rows]
    result.check("comparisons fall monotonically with k",
                 comparisons == sorted(comparisons, reverse=True))
    result.check("replication rises monotonically with k",
                 replicated == sorted(replicated))
    result.check("optimal k is interior (not the sweep's extremes)",
                 best["k"] not in (rows[0]["k"], rows[-1]["k"]))
    mid = [row["t_total_s"] for row in rows if row["k"] in (16, 32, 64)]
    # "Roughly similar" (paper): single cold runs jitter, so allow 60% —
    # still far tighter than PSJ's ~3x spread over the same k range.
    result.check("times at k = 16/32/64 roughly similar (within 60%)",
                 bool(mid) and max(mid) <= 1.6 * min(mid))
    result.paper_claims = [
        "At |R|=|S|=10000 on the paper's hardware the optimum is k = 32 "
        "(24 s); the curve is U-shaped: partitioning overhead eventually "
        f"outweighs comparison savings [measured optimum k = {best['k']}, "
        f"{best['t_total_s']:.2f} s at scale {scale:g}]",
        "Execution times are roughly similar for k = 16, 32, 64 (the "
        "power-of-two restriction is not critical)",
    ]
    return result


@register("fig9")
def run_fig9(scale: float = 0.2, repeats: int = 1,
             seed: int = 7) -> ExperimentResult:
    """PSJ on the same workload — I/O-bound, never catches DCJ's best."""
    rows = sweep_partition_counts("PSJ", PSJ_K_VALUES, scale, repeats, seed)
    dcj_rows = sweep_partition_counts(
        "DCJ", (16, 32, 64, 128), scale, repeats, seed
    )
    best_psj = min(rows, key=lambda row: row["t_total_s"])
    best_dcj = min(dcj_rows, key=lambda row: row["t_total_s"])
    result = ExperimentResult(
        experiment_id="fig9",
        title=f"PSJ time vs k — case study at scale {scale:g}",
        columns=_COLUMNS,
        rows=rows,
    )
    replicated = [row["replicated"] for row in rows]
    result.check("PSJ replication explodes monotonically with k",
                 replicated == sorted(replicated))
    result.check("increasing k does not pay off (time at max k > time at min k)",
                 rows[-1]["t_total_s"] > rows[0]["t_total_s"])
    result.check("best PSJ does not beat best DCJ",
                 best_psj["t_total_s"] >= 0.95 * best_dcj["t_total_s"])
    comp_at_32 = next(row["comp_factor"] for row in rows if row["k"] == 32)
    result.check("comp_PSJ ≈ 0.95 at k = 32", abs(comp_at_32 - 0.95) < 0.03)
    result.paper_claims = [
        "Increasing k does not help PSJ here: by the time the comparison "
        "factor drops (k ≳ 32, comp_PSJ ≈ 0.95) PSJ is dominated by "
        "partitioning I/O; its best time (48 s) is ≈2x DCJ's (24 s) "
        f"[measured best PSJ {best_psj['t_total_s']:.2f} s (k={best_psj['k']}) "
        f"vs best DCJ {best_dcj['t_total_s']:.2f} s (k={best_dcj['k']})]",
    ]
    return result
