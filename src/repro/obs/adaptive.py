"""Closed-loop calibration: drift history → refit → fresher model.

PRs 3–4 built the *observe* half of the loop — the plan inspector
computes per-join predicted-vs-observed drift and :mod:`repro.obs.drift`
persists it — but nothing ever *acted* on the measurements: the
optimizer kept trusting the seed-calibrated Section 5 constants even
when :func:`~repro.obs.drift.summarize_drift` showed them to be
systematically wrong.  This module closes the loop:

* :func:`samples_from_history` — convert accumulated
  :class:`~repro.obs.drift.DriftRecord`\\ s into the
  :class:`~repro.analysis.timemodel.CalibrationSample`\\ s the paper's
  fitting procedure consumes (observed x, y, k and wall seconds);
* :class:`ModelStore` — versioned JSON persistence for refitted
  :class:`~repro.analysis.timemodel.TimeModel`\\ s, each version carrying
  its provenance (record count, window, before/after error, residuals);
  the *active* model is always the freshest version;
* :class:`Recalibrator` — the control policy: refit c1/c2/c3 via
  :func:`~repro.analysis.timemodel.calibrate` whenever the wall-time
  bias of the recent drift window exceeds a threshold, persist the new
  version, and publish ``setjoin_model_*`` gauges so the active
  coefficients and refit count are scrapable.

A refit is the only way observed time reaches the planner: the paper's
one cost model ``c1·x + c2·y·k^c3``, fitted again by the paper's own
least-squares procedure on this machine's history.  The join itself is
never touched: results and the paper's x/y accounting are bit-identical
under any model version.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..analysis.timemodel import (
    PAPER_TIME_MODEL,
    CalibrationSample,
    TimeModel,
    calibrate,
)
from ..errors import CalibrationError, ConfigurationError
from .drift import DriftRecord, read_drift_jsonl, summarize_drift

__all__ = [
    "ModelVersion",
    "ModelStore",
    "RefitOutcome",
    "RollbackOutcome",
    "Recalibrator",
    "samples_from_history",
    "publish_model",
]

#: Default |bias| of the wall-time term above which a refit is triggered.
#: The paper's own calibration achieved a 15.4% *absolute* error, so a
#: 20% systematic (signed) bias means the machine no longer resembles
#: the one the constants were fitted on.
DEFAULT_BIAS_THRESHOLD = 0.2

#: Default number of most-recent drift records a refit considers.
DEFAULT_WINDOW = 200

#: Default minimum history size before the recalibrator acts at all.
DEFAULT_MIN_RECORDS = 20

#: Minimum drift records observed *under* a refitted model before the
#: rollback check will judge it — a refit must not be reverted on a
#: couple of noisy joins.
DEFAULT_MIN_ROLLBACK_RECORDS = 20


def samples_from_history(
    records: Iterable[DriftRecord],
) -> "list[CalibrationSample]":
    """Convert drift records into calibration samples.

    Uses each record's *observed* quantities — the actual signature
    comparisons (x), replicated signatures (y) and wall seconds the run
    produced — exactly what the paper's least-squares fit consumes.
    Records without positive observed seconds (or missing counters) are
    skipped: they cannot constrain the time model.
    """
    samples: list[CalibrationSample] = []
    for record in records:
        seconds = record.observed.get("seconds")
        comparisons = record.observed.get("comparisons")
        replicated = record.observed.get("replicated")
        if not seconds or seconds <= 0:
            continue
        if comparisons is None or replicated is None:
            continue
        samples.append(CalibrationSample(
            comparisons=float(comparisons),
            replicated_signatures=float(replicated),
            num_partitions=max(int(record.k), 1),
            seconds=float(seconds),
        ))
    return samples


@dataclass(frozen=True)
class ModelVersion:
    """One refitted model plus the provenance of its fit."""

    version: int
    model: TimeModel
    fitted_at: float
    records: int  # drift records the fit consumed
    window: int  # configured window the records were drawn from
    mean_abs_error_before: float  # stale model's error on the samples
    mean_abs_error_after: float  # refitted model's error on the samples
    residuals: "tuple[float, ...]" = ()  # per-sample signed relative errors

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "c1": self.model.c1,
            "c2": self.model.c2,
            "c3": self.model.c3,
            "fitted_at": self.fitted_at,
            "records": self.records,
            "window": self.window,
            "mean_abs_error_before": self.mean_abs_error_before,
            "mean_abs_error_after": self.mean_abs_error_after,
            "residuals": list(self.residuals),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "ModelVersion":
        try:
            return cls(
                version=int(record["version"]),
                model=TimeModel(
                    c1=float(record["c1"]),
                    c2=float(record["c2"]),
                    c3=float(record["c3"]),
                ),
                fitted_at=float(record["fitted_at"]),
                records=int(record["records"]),
                window=int(record["window"]),
                mean_abs_error_before=float(record["mean_abs_error_before"]),
                mean_abs_error_after=float(record["mean_abs_error_after"]),
                residuals=tuple(record.get("residuals", ())),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigurationError(
                f"malformed model version record: {error}"
            ) from error


class ModelStore:
    """Versioned persistence for recalibrated time models.

    ``path=None`` keeps versions in memory only (tests, one-shot runs);
    with a path, every :meth:`add_version` rewrites the JSON document
    atomically, and construction loads any existing versions, so a
    long-lived installation resumes from its freshest fit.  The
    ``base_model`` (default: the paper's constants) is what
    :attr:`active` falls back to while no refit has happened yet.
    """

    SCHEMA = 1

    def __init__(
        self,
        path: "str | None" = None,
        base_model: TimeModel = PAPER_TIME_MODEL,
    ):
        self.path = path
        self.base_model = base_model
        self.versions: list[ModelVersion] = []
        if path is not None and os.path.exists(path):
            self._load(path)

    def _load(self, path: str) -> None:
        with open(path) as handle:
            document = json.load(handle)
        if document.get("schema") != self.SCHEMA:
            raise ConfigurationError(
                f"model store {path!r} has schema "
                f"{document.get('schema')!r}, expected {self.SCHEMA}"
            )
        self.versions = [
            ModelVersion.from_dict(record)
            for record in document.get("versions", [])
        ]
        self.versions.sort(key=lambda v: v.version)

    def save(self) -> None:
        """Atomically persist every version (no-op for in-memory stores)."""
        if self.path is None:
            return
        document = {
            "schema": self.SCHEMA,
            "versions": [version.to_dict() for version in self.versions],
        }
        tmp = f"{self.path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, self.path)

    @property
    def active(self) -> TimeModel:
        """The freshest model: the latest version, else the base model."""
        if self.versions:
            return self.versions[-1].model
        return self.base_model

    @property
    def active_version(self) -> int:
        """0 while unrefitted, else the latest version number."""
        return self.versions[-1].version if self.versions else 0

    def add_version(
        self,
        model: TimeModel,
        *,
        records: int,
        window: int,
        mean_abs_error_before: float,
        mean_abs_error_after: float,
        residuals: Sequence[float] = (),
        wall=None,
    ) -> ModelVersion:
        """Append (and persist) a refitted model with its provenance.

        ``wall`` is the timestamp source (default :func:`time.time`;
        inject for deterministic tests).
        """
        version = ModelVersion(
            version=self.active_version + 1,
            model=model,
            fitted_at=(wall if wall is not None else time.time)(),
            records=records,
            window=window,
            mean_abs_error_before=mean_abs_error_before,
            mean_abs_error_after=mean_abs_error_after,
            residuals=tuple(float(r) for r in residuals),
        )
        self.versions.append(version)
        self.save()
        return version

    def rollback(self) -> ModelVersion:
        """Discard (and unpersist) the active version; return it.

        The previous version — or the base model when none remain —
        becomes active.  Rolling back an unrefitted store is a
        :class:`~repro.errors.ConfigurationError`.
        """
        if not self.versions:
            raise ConfigurationError(
                "cannot roll back: no refitted model is active"
            )
        removed = self.versions.pop()
        self.save()
        return removed


def publish_model(
    model: TimeModel, version: int, registry=None
) -> None:
    """Expose the active model on ``/metrics`` as ``setjoin_model_*``.

    Gauges for the three coefficients plus the active version number, so
    a dashboard can both watch the constants move and alert when an
    installation has never refitted (version 0).
    """
    from .registry import get_registry

    reg = registry if registry is not None else get_registry()
    reg.gauge(
        "setjoin_model_c1", "Active time-model CPU coefficient c1"
    ).set(model.c1)
    reg.gauge(
        "setjoin_model_c2", "Active time-model I/O coefficient c2"
    ).set(model.c2)
    reg.gauge(
        "setjoin_model_c3", "Active time-model fragmentation exponent c3"
    ).set(model.c3)
    reg.gauge(
        "setjoin_model_version",
        "Active time-model version (0 = never recalibrated)",
    ).set(version)


@dataclass
class RefitOutcome:
    """What one recalibration attempt decided, and why."""

    refit: bool
    reason: str
    summary: dict = field(default_factory=dict)  # summarize_drift output
    version: "ModelVersion | None" = None

    @property
    def model(self) -> "TimeModel | None":
        return self.version.model if self.version is not None else None


@dataclass
class RollbackOutcome:
    """What one rollback check decided, and why."""

    reverted: bool
    reason: str
    #: mean |relative error| of the (pre-check) active model and of the
    #: paper constants on the post-refit window, when both were computed.
    active_error: "float | None" = None
    base_error: "float | None" = None
    removed: "ModelVersion | None" = None


class Recalibrator:
    """Refit the time model when accumulated drift shows systematic bias.

    The policy mirrors how the paper treats calibration — a least-squares
    fit over measured runs — but runs it *continuously*: every
    :meth:`maybe_recalibrate` call inspects the most recent ``window``
    drift records and refits when the wall-time term's mean signed error
    (bias) exceeds ``bias_threshold`` in magnitude.  A refit is accepted
    only if it actually improves the mean absolute error on the very
    samples that triggered it; the result is versioned into the
    :class:`ModelStore` and published to the metrics registry.
    """

    def __init__(
        self,
        store: "ModelStore | None" = None,
        bias_threshold: float = DEFAULT_BIAS_THRESHOLD,
        window: int = DEFAULT_WINDOW,
        min_records: int = DEFAULT_MIN_RECORDS,
        min_rollback_records: int = DEFAULT_MIN_ROLLBACK_RECORDS,
        registry=None,
    ):
        if bias_threshold <= 0:
            raise ConfigurationError(
                f"bias threshold must be positive, got {bias_threshold}"
            )
        if window < min_records:
            raise ConfigurationError(
                f"window ({window}) must be >= min_records ({min_records})"
            )
        if min_rollback_records < 1:
            raise ConfigurationError(
                "min_rollback_records must be >= 1, got "
                f"{min_rollback_records}"
            )
        self.store = store if store is not None else ModelStore()
        self.bias_threshold = bias_threshold
        self.window = window
        self.min_records = min_records
        self.min_rollback_records = min_rollback_records
        self.registry = registry
        # The current state is observable even before any refit.
        publish_model(
            self.store.active, self.store.active_version, registry=registry
        )

    @property
    def model(self) -> TimeModel:
        """The freshest model (delegates to the store)."""
        return self.store.active

    def maybe_recalibrate(
        self, history: "str | Sequence[DriftRecord]", wall=None
    ) -> RefitOutcome:
        """Inspect a drift history and refit if it warrants it.

        ``history`` is a JSONL path (read via
        :func:`~repro.obs.drift.read_drift_jsonl`) or an already-loaded
        record sequence.  Returns a :class:`RefitOutcome` either way —
        the ``reason`` string always says what happened.
        """
        if isinstance(history, str):
            records = read_drift_jsonl(history)
        else:
            records = list(history)
        recent = records[-self.window:]
        summary = summarize_drift(recent)
        if len(recent) < self.min_records:
            return RefitOutcome(
                False,
                f"history too thin: {len(recent)} records "
                f"< min_records={self.min_records}",
                summary,
            )
        seconds = summary.get("seconds")
        if not seconds:
            return RefitOutcome(
                False, "no wall-time errors in the drift window", summary
            )
        bias = seconds["bias"]
        if abs(bias) <= self.bias_threshold:
            return RefitOutcome(
                False,
                f"wall-time bias {bias:+.1%} within threshold "
                f"±{self.bias_threshold:.0%}",
                summary,
            )
        samples = samples_from_history(recent)
        if len(samples) < 3:  # calibrate() needs >= 3 points
            return RefitOutcome(
                False,
                f"only {len(samples)} usable calibration samples in the "
                "window (need >= 3)",
                summary,
            )
        stale = self.store.active
        error_before = stale.mean_prediction_error(samples)
        try:
            fitted = calibrate(samples, initial=stale)
        except CalibrationError as error:
            return RefitOutcome(
                False, f"refit failed: {error}", summary
            )
        error_after = fitted.mean_prediction_error(samples)
        if error_after >= error_before:
            return RefitOutcome(
                False,
                f"refit did not improve: {error_after:.1%} >= "
                f"{error_before:.1%} on the triggering window",
                summary,
            )
        residuals = [
            fitted.relative_error(
                s.comparisons, s.replicated_signatures, s.num_partitions,
                s.seconds,
            )
            for s in samples
        ]
        version = self.store.add_version(
            fitted,
            records=len(samples),
            window=self.window,
            mean_abs_error_before=error_before,
            mean_abs_error_after=error_after,
            residuals=residuals,
            wall=wall,
        )
        self._publish_refit(version)
        return RefitOutcome(
            True,
            f"wall-time bias {bias:+.1%} exceeded ±"
            f"{self.bias_threshold:.0%}: refit over {len(samples)} samples "
            f"cut mean |error| {error_before:.1%} → {error_after:.1%}",
            summary,
            version,
        )

    def maybe_rollback(
        self, history: "str | Sequence[DriftRecord]", wall=None
    ) -> RollbackOutcome:
        """Revert the active refit if it performs worse than the paper
        constants on the drift observed *since* it was fitted.

        A refit is accepted on the window that triggered it — the past.
        This is the forward check: once ``min_rollback_records`` drift
        records have accumulated under the refitted model, compare its
        mean |relative error| on them against the base (paper) model's;
        if the refit regresses, pop it from the store, bump
        ``setjoin_model_rollback_total`` and raise the
        ``setjoin_model_rollback_alert`` gauge.  The alert clears (0)
        whenever a check finds the active refit healthy.  ``wall`` is
        accepted for symmetry with :meth:`maybe_recalibrate` and unused.
        """
        del wall
        if not self.store.versions:
            return RollbackOutcome(
                False, "no refitted model active: nothing to roll back"
            )
        if isinstance(history, str):
            records = read_drift_jsonl(history)
        else:
            records = list(history)
        active = self.store.versions[-1]
        since = [
            record for record in records
            if record.timestamp > active.fitted_at
        ]
        if len(since) < self.min_rollback_records:
            return RollbackOutcome(
                False,
                f"only {len(since)} drift records since refit v"
                f"{active.version} (need >= {self.min_rollback_records})",
            )
        samples = samples_from_history(since)
        if len(samples) < 3:
            return RollbackOutcome(
                False,
                f"only {len(samples)} usable samples since refit v"
                f"{active.version} (need >= 3)",
            )
        active_error = active.model.mean_prediction_error(samples)
        base_error = self.store.base_model.mean_prediction_error(samples)
        if active_error <= base_error:
            self._alert_gauge().set(0)
            return RollbackOutcome(
                False,
                f"refit v{active.version} holding up: {active_error:.1%} "
                f"<= paper constants' {base_error:.1%} over "
                f"{len(samples)} post-refit samples",
                active_error=active_error,
                base_error=base_error,
            )
        removed = self.store.rollback()
        self._publish_rollback(removed)
        return RollbackOutcome(
            True,
            f"refit v{removed.version} regressed: {active_error:.1%} > "
            f"paper constants' {base_error:.1%} over {len(samples)} "
            "post-refit samples; reverted to "
            f"v{self.store.active_version}",
            active_error=active_error,
            base_error=base_error,
            removed=removed,
        )

    def _alert_gauge(self):
        from .registry import get_registry

        reg = self.registry if self.registry is not None else get_registry()
        return reg.gauge(
            "setjoin_model_rollback_alert",
            "1 while the last rollback check reverted a refitted model",
        )

    def _publish_rollback(self, removed: ModelVersion) -> None:
        from .registry import get_registry

        reg = self.registry if self.registry is not None else get_registry()
        reg.counter(
            "setjoin_model_rollback_total",
            "Refitted time models reverted for regressing vs the paper "
            "constants",
        ).inc()
        self._alert_gauge().set(1)
        publish_model(
            self.store.active, self.store.active_version,
            registry=self.registry,
        )

    def _publish_refit(self, version: ModelVersion) -> None:
        from .registry import get_registry

        reg = self.registry if self.registry is not None else get_registry()
        reg.counter(
            "setjoin_model_refits_total",
            "Time-model recalibrations accepted",
        ).inc()
        publish_model(version.model, version.version, registry=self.registry)
