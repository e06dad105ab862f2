"""Out-of-sample time prediction (Section 5's two-step approach).

The paper's procedure: (1) estimate comparison/replication factors from
the Table 7 formulas — machine-independent; (2) plug them into the
calibrated time equation — machine-specific.  The crucial property is
that one calibration generalizes across workloads and algorithms: "it can
be applied for both partitioning algorithms used on the same system".

This experiment tests exactly that: the model is calibrated on a grid of
*other* workloads, then predicts the case-study sweep (different size,
different cardinalities) for both DCJ and PSJ; predictions are compared
against fresh measurements per k.
"""

from __future__ import annotations

from ..analysis.factors import comparison_factor, replication_factor
from ..analysis.timemodel import calibrate
from .base import ExperimentResult, register
from .calibration import collect_samples
from .case_study import THETA_R, THETA_S, sweep_partition_counts

__all__ = ["run"]

CALIBRATION_GRID = (
    # deliberately excludes the case-study configuration
    (300, 300, 20, 40),
    (600, 600, 20, 40),
    (300, 600, 30, 60),
    (600, 300, 40, 40),
)
K_VALUES = (4, 16, 64)
SWEEP_K = (8, 32, 128)


@register("prediction")
def run(scale: float = 0.15, seed: int = 37) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="prediction",
        title="Out-of-sample execution-time prediction "
        f"(case study at scale {scale:g}, model calibrated elsewhere)",
        columns=["algorithm", "k", "t_measured_s", "t_predicted_s",
                 "rel_error"],
    )
    model = calibrate(collect_samples(CALIBRATION_GRID, K_VALUES, seed=seed))
    from ..obs.drift import DriftRecord, record_drift

    size = max(16, int(10_000 * scale))
    rho = 1.0
    errors = []
    signed_errors = []
    for algorithm in ("DCJ", "PSJ"):
        rows = sweep_partition_counts(
            algorithm, SWEEP_K, scale=scale, seed=seed
        )
        for row in rows:
            k = row["k"]
            comp = comparison_factor(algorithm, k, THETA_R, THETA_S)
            repl = replication_factor(algorithm, k, THETA_R, THETA_S, rho)
            predicted = model.predict_factors(comp, repl, size, size, k)
            measured = row["t_total_s"]
            relative = abs(predicted - measured) / measured
            errors.append(relative)
            signed = (measured - predicted) / measured
            signed_errors.append(signed)
            # Publish each out-of-sample point into the drift layer, so
            # running this experiment populates the setjoin_drift_* series
            # the same way ANALYZE does for ad-hoc joins.
            record_drift(DriftRecord(
                timestamp=0.0, algorithm=algorithm, k=k,
                r_size=size, s_size=size,
                predicted={"seconds": predicted},
                observed={"seconds": measured},
                errors={"seconds": signed},
            ))
            result.rows.append(
                {
                    "algorithm": algorithm,
                    "k": k,
                    "t_measured_s": measured,
                    "t_predicted_s": predicted,
                    "rel_error": relative,
                }
            )
    mean_error = sum(errors) / len(errors)
    bias = sum(signed_errors) / len(signed_errors)
    result.check(
        "one calibration predicts BOTH algorithms on an unseen workload "
        "with usable accuracy (mean relative error ≤ 50%)",
        mean_error <= 0.50,
    )
    dcj_rows = [row for row in result.rows if row["algorithm"] == "DCJ"]
    psj_rows = [row for row in result.rows if row["algorithm"] == "PSJ"]
    result.check(
        "predictions rank the algorithms correctly at every shared k",
        all(
            (d["t_predicted_s"] < p["t_predicted_s"])
            == (d["t_measured_s"] < p["t_measured_s"])
            for d, p in zip(dcj_rows, psj_rows)
        ),
    )
    result.paper_claims = [
        "The time equation is system-dependent but \"can be applied for "
        "both partitioning algorithms used on the same system\"; the "
        "paper's own average prediction error was 15.4% "
        f"[measured out-of-sample mean error here: {mean_error:.1%}]",
    ]
    result.notes = [
        "Calibrated on four workloads that exclude the case-study "
        "configuration; predictions are genuinely out of sample.",
        f"Out-of-sample drift: bias {bias:+.1%} (mean signed error; "
        "positive = runs slower than predicted); every point also "
        "published to the setjoin_drift_* metrics.",
    ]
    return result
