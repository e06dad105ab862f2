"""Calibration of the time model (Section 5, "Predicting execution times").

Runs PSJ and DCJ over a grid of synthetic relations and partition counts,
records (x, y, k, time) per run, fits ``time(x, y, k) = c1·x + c2·y·k^c3``
by least squares, and reports the constants and the average prediction
error (the paper: 114 points, 15.4% error, c1 = 5.12686e-7,
c2 = 8.28197e-7, c3 = 0.691485 on its hardware).
"""

from __future__ import annotations

from ..analysis.simulate import make_partitioner
from ..analysis.timemodel import CalibrationSample, TimeModel, calibrate
from ..core.operator import run_disk_join
from ..data.workloads import uniform_workload
from .base import ExperimentResult, register

__all__ = ["collect_samples", "run"]

DEFAULT_GRID = (
    # (r_size, s_size, theta_r, theta_s)
    (400, 400, 20, 40),
    (800, 800, 20, 40),
    (400, 400, 50, 100),
    (800, 800, 50, 100),
    (400, 800, 30, 60),
    (800, 400, 30, 30),
)
DEFAULT_K_VALUES = (4, 16, 64)
DEFAULT_ALGORITHMS = ("DCJ", "PSJ")


def collect_samples(
    grid=DEFAULT_GRID,
    k_values=DEFAULT_K_VALUES,
    algorithms=DEFAULT_ALGORITHMS,
    seed: int = 11,
) -> list[CalibrationSample]:
    """Measure the calibration data points ("calibration of hardware")."""
    samples = []
    for r_size, s_size, theta_r, theta_s in grid:
        workload = uniform_workload(
            r_size, s_size, theta_r, theta_s, domain_size=10_000, seed=seed
        )
        lhs, rhs = workload.materialize()
        for algorithm in algorithms:
            for k in k_values:
                partitioner = make_partitioner(
                    algorithm, k, theta_r, theta_s, seed=seed
                )
                # Scalar loop: c1·x is fitted to a compare-dominant cost.
                __, metrics = run_disk_join(
                    lhs, rhs, partitioner, engine="python"
                )
                samples.append(CalibrationSample.from_metrics(metrics))
    return samples


@register("calibration")
def run(grid=DEFAULT_GRID, k_values=DEFAULT_K_VALUES,
        seed: int = 11) -> ExperimentResult:
    samples = collect_samples(grid, k_values, seed=seed)
    model = calibrate(samples)
    error = model.mean_prediction_error(samples)

    result = ExperimentResult(
        experiment_id="calibration",
        title="Time-model calibration: time(x, y, k) = c1·x + c2·y·k^c3",
        columns=["constant", "fitted", "paper (their hardware)"],
        rows=[
            {"constant": "c1", "fitted": model.c1, "paper (their hardware)": 5.12686e-7},
            {"constant": "c2", "fitted": model.c2, "paper (their hardware)": 8.28197e-7},
            {"constant": "c3", "fitted": model.c3, "paper (their hardware)": 0.691485},
            {"constant": "samples", "fitted": len(samples), "paper (their hardware)": 114},
            {"constant": "mean error", "fitted": error, "paper (their hardware)": 0.154},
        ],
    )
    result.check("fit converges with a usable error (≤ 40%)", error <= 0.40)
    result.check("all constants non-negative",
                 model.c1 >= 0 and model.c2 >= 0 and model.c3 >= 0)
    result.paper_claims = [
        "time(x,y,k) = c1·x + c2·y·k^c3 gave the smallest average "
        "prediction error among the candidate function shapes",
        "Average prediction error 15.4% over 114 points "
        f"[measured {error:.1%} over {len(samples)} points]",
    ]
    from ..obs.drift import calibration_residuals

    signed = [
        row["relative_error"]
        for row in calibration_residuals(model, samples)
        if row["relative_error"] is not None
    ]
    bias = sum(signed) / len(signed)
    result.check(
        "residuals are centred (|mean signed error| ≤ 15%): the relative "
        "least-squares fit should not systematically under- or over-predict",
        abs(bias) <= 0.15,
    )
    result.notes = [
        "Constants are hardware-specific by design; only the functional "
        "form and the achievable error transfer between systems.",
        f"Residual drift at calibration time: bias {bias:+.1%} (mean "
        f"signed error), worst point {max(abs(e) for e in signed):.1%}; "
        "per-point residuals via repro.obs.drift.calibration_residuals().",
    ]
    return result


def fitted_model(seed: int = 11) -> TimeModel:
    """Convenience: calibrate on the default grid and return the model."""
    return calibrate(collect_samples(seed=seed))
