"""Model-drift tracking: predicted vs. observed, over time.

The paper's calibrated time model (Section 5) reports a 15.4% average
prediction error *at calibration time*.  On a long-lived installation the
interesting question is how that error evolves — a model calibrated on
one machine, buffer-pool size, or workload mix drifts as any of them
change.  This module keeps the predicted-vs-observed deltas the plan
inspector computes (:mod:`repro.obs.explain`):

* :class:`DriftRecord` — one join's predictions, observations, and
  signed relative errors;
* :func:`record_drift` — publish a record into the metrics registry as
  ``setjoin_drift_*`` gauges (last-join errors) and histograms
  (absolute-error distributions), so drift shows up on ``/metrics``;
* :func:`append_drift_jsonl` / :func:`read_drift_jsonl` — durable
  per-join drift history as JSON Lines;
* :func:`summarize_drift` — aggregate a history into the paper's
  *average prediction error* plus bias (mean signed error);
* :func:`calibration_residuals` — per-sample residuals of a model over
  calibration samples, for the calibration/prediction experiments.

Error convention throughout: signed relative error
``(observed − predicted) / observed``; positive means the model
undershot (the run did more work / took longer than predicted).  The
paper's headline number is the mean of the absolute values.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from ..errors import ConfigurationError

__all__ = [
    "DriftRecord",
    "compute_drift",
    "record_drift",
    "append_drift_jsonl",
    "read_drift_jsonl",
    "summarize_drift",
    "calibration_residuals",
    "drift_line",
]

#: Keys compared between prediction and observation, in reporting order.
DRIFT_KEYS = ("seconds", "comparisons", "replicated")

#: Buckets for relative-error histograms (fractions, not seconds).
ERROR_BUCKETS = (0.01, 0.02, 0.05, 0.1, 0.15, 0.25, 0.5, 1.0, 2.0, 5.0)


@dataclass
class DriftRecord:
    """One join's predicted-vs-observed comparison."""

    timestamp: float
    algorithm: str
    k: int
    r_size: int
    s_size: int
    predicted: dict = field(default_factory=dict)
    observed: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "timestamp": self.timestamp,
            "algorithm": self.algorithm,
            "k": self.k,
            "r_size": self.r_size,
            "s_size": self.s_size,
            "predicted": dict(self.predicted),
            "observed": dict(self.observed),
            "errors": dict(self.errors),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "DriftRecord":
        try:
            return cls(
                timestamp=record["timestamp"],
                algorithm=record["algorithm"],
                k=record["k"],
                r_size=record["r_size"],
                s_size=record["s_size"],
                predicted=dict(record["predicted"]),
                observed=dict(record["observed"]),
                errors=dict(record["errors"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigurationError(
                f"malformed drift record: {error}"
            ) from error


def signed_error(predicted, observed):
    """``(observed − predicted) / observed``; ``None`` when only the
    observation is zero — the one error formula of EXPLAIN ANALYZE and
    drift records."""
    if observed == 0:
        return 0.0 if predicted == 0 else None
    return (observed - predicted) / observed


def compute_drift(
    prediction: dict, metrics, wall=None, observed: dict | None = None,
) -> DriftRecord:
    """Build a :class:`DriftRecord` from a prediction and a finished run.

    ``prediction`` is :meth:`JoinPlan.prediction
    <repro.core.optimizer.JoinPlan.prediction>` (or the EXPLAIN root that
    carries it): it must hold ``seconds``, ``comparisons`` and
    ``replicated``.  ``metrics`` is the run's
    :class:`~repro.core.metrics.JoinMetrics`; ``observed`` defaults to
    its total seconds, x and y — ANALYZE passes its annotated root's
    observations instead, so the record holds the numbers it rendered.
    ``wall`` is the timestamp source (default :func:`time.time`; inject
    for deterministic tests).
    """
    missing = [key for key in DRIFT_KEYS if prediction.get(key) is None]
    if missing:
        raise ConfigurationError(
            f"prediction dict is missing {missing} (got keys "
            f"{sorted(prediction)})"
        )
    if observed is None:
        observed = {
            "seconds": metrics.total_seconds,
            "comparisons": metrics.signature_comparisons,
            "replicated": metrics.replicated_signatures,
        }
    predicted = {key: prediction[key] for key in DRIFT_KEYS}
    observed = {key: observed[key] for key in DRIFT_KEYS}
    errors = {
        key: signed_error(predicted[key], observed[key])
        for key in DRIFT_KEYS
    }
    return DriftRecord(
        timestamp=(wall if wall is not None else time.time)(),
        algorithm=metrics.algorithm,
        k=metrics.num_partitions,
        r_size=metrics.r_size,
        s_size=metrics.s_size,
        predicted=predicted,
        observed=observed,
        errors=errors,
    )


def record_drift(record: DriftRecord, registry=None) -> None:
    """Publish a drift record into the metrics registry.

    Exposes, per compared quantity (seconds / comparisons / replicated):

    * ``setjoin_drift_last_<key>_relative_error`` — gauge, signed error
      of the most recent analyzed join;
    * ``setjoin_drift_<key>_abs_error`` — histogram of absolute relative
      errors (the paper's prediction-error distribution);

    plus ``setjoin_drift_records_total``.  Scraping ``/metrics`` after a
    few ANALYZE runs therefore shows both the current drift and its
    history.
    """
    from .registry import get_registry

    reg = registry if registry is not None else get_registry()
    reg.counter(
        "setjoin_drift_records_total",
        "Analyzed joins with predicted-vs-observed drift recorded",
    ).inc()
    for key in DRIFT_KEYS:
        error = record.errors.get(key)
        if error is None:
            continue
        reg.gauge(
            f"setjoin_drift_last_{key}_relative_error",
            f"Signed (observed-predicted)/observed for {key}, last "
            "analyzed join",
        ).set(error)
        reg.histogram(
            f"setjoin_drift_{key}_abs_error",
            f"Absolute relative prediction error for {key}",
            buckets=ERROR_BUCKETS,
        ).observe(abs(error))


def append_drift_jsonl(record: DriftRecord, path: str) -> None:
    """Append one record to a JSONL drift history file."""
    with open(path, "a") as handle:
        handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")


def read_drift_jsonl(path: str) -> "list[DriftRecord]":
    """Load a JSONL drift history file."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(DriftRecord.from_dict(json.loads(line)))
    return records


def summarize_drift(records: "list[DriftRecord]") -> dict:
    """Aggregate a drift history.

    Per compared key: ``mean_abs_error`` (the paper's average prediction
    error), ``bias`` (mean signed error; non-zero means systematic
    under-/over-prediction, i.e. the model wants recalibration) and
    ``max_abs_error``.
    """
    out: dict = {"records": len(records)}
    for key in DRIFT_KEYS:
        errors = [
            record.errors[key]
            for record in records
            if record.errors.get(key) is not None
        ]
        if not errors:
            out[key] = None
            continue
        out[key] = {
            "mean_abs_error": sum(abs(e) for e in errors) / len(errors),
            "bias": sum(errors) / len(errors),
            "max_abs_error": max(abs(e) for e in errors),
        }
    return out


def drift_line(line: str) -> dict:
    """Rotation ``parse`` hook: one history line as its canonical
    record, so compaction sheds what the recalibrator could not load."""
    return DriftRecord.from_dict(json.loads(line)).to_dict()


def calibration_residuals(model, samples) -> "list[dict]":
    """Per-sample drift of a time model over calibration samples.

    One dict per :class:`~repro.analysis.timemodel.CalibrationSample`:
    the sample's (x, y, k), the model's predicted seconds, the observed
    seconds, and the signed relative error.  The calibration experiment
    reports these so a fitted model's residual structure (not just its
    mean error) is visible.
    """
    rows = []
    for sample in samples:
        predicted = model.predict(
            sample.comparisons, sample.replicated_signatures,
            sample.num_partitions,
        )
        rows.append({
            "comparisons": sample.comparisons,
            "replicated_signatures": sample.replicated_signatures,
            "k": sample.num_partitions,
            "predicted_seconds": predicted,
            "observed_seconds": sample.seconds,
            "relative_error": signed_error(predicted, sample.seconds),
        })
    return rows
