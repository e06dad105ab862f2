"""Tests for closed-loop calibration (repro.obs.adaptive).

The acceptance scenario for the loop: a clock that makes every join look
twice as slow as the model predicts must, after ≥20 joins of accumulated
drift, trigger a refit that cuts the mean absolute prediction error by
at least half — and the drift-aware optimizer must be able to flip its
DCJ/PSJ choice — while the executed joins stay bit-identical (pairs and
the paper's x/y counters) with adaptation on or off.
"""

import json
import time

import pytest

from repro.analysis.timemodel import PAPER_TIME_MODEL, TimeModel
from repro.core.api import containment_join
from repro.core.optimizer import choose_plan, resolve_drift_corrections
from repro.errors import ConfigurationError
from repro.obs.adaptive import (
    ModelStore,
    ModelVersion,
    Recalibrator,
    drift_corrections,
    publish_model,
    samples_from_history,
)
from repro.obs.drift import DriftRecord, append_drift_jsonl
from repro.obs.registry import MetricsRegistry


def make_record(
    algorithm="DCJ",
    k=16,
    x=200_000.0,
    y=30_000.0,
    factor=2.0,
    model=PAPER_TIME_MODEL,
    timestamp=0.0,
):
    """A drift record whose observed wall time is ``factor`` × predicted."""
    predicted_seconds = model.predict(x, y, k)
    predicted = {"seconds": predicted_seconds, "comparisons": x,
                 "replicated": y}
    observed = {"seconds": predicted_seconds * factor, "comparisons": x,
                "replicated": y}
    errors = {
        key: (observed[key] - predicted[key]) / observed[key]
        if observed[key] else 0.0
        for key in predicted
    }
    return DriftRecord(
        timestamp=timestamp, algorithm=algorithm, k=k,
        r_size=10_000, s_size=10_000,
        predicted=predicted, observed=observed, errors=errors,
    )


def skewed_history(count=24, factor=2.0, algorithm="DCJ"):
    """``count`` varied workloads, all observed ``factor`` × predicted."""
    shapes = [
        (120_000.0, 20_000.0, 8),
        (240_000.0, 35_000.0, 16),
        (400_000.0, 60_000.0, 32),
        (90_000.0, 15_000.0, 64),
    ]
    return [
        make_record(
            algorithm=algorithm,
            x=shapes[i % len(shapes)][0] * (1.0 + 0.01 * i),
            y=shapes[i % len(shapes)][1] * (1.0 + 0.01 * i),
            k=shapes[i % len(shapes)][2],
            factor=factor,
            timestamp=float(i),
        )
        for i in range(count)
    ]


class TestSamplesFromHistory:
    def test_converts_observed_quantities(self):
        samples = samples_from_history([make_record(x=1000.0, y=100.0, k=4)])
        assert len(samples) == 1
        sample = samples[0]
        assert sample.comparisons == 1000.0
        assert sample.replicated_signatures == 100.0
        assert sample.num_partitions == 4
        assert sample.seconds == pytest.approx(
            2.0 * PAPER_TIME_MODEL.predict(1000.0, 100.0, 4)
        )

    def test_skips_unusable_records(self):
        bad = make_record()
        bad.observed["seconds"] = 0.0
        missing = make_record()
        del missing.observed["comparisons"]
        assert samples_from_history([bad, missing]) == []


class TestModelStore:
    def test_in_memory_falls_back_to_base_model(self):
        store = ModelStore()
        assert store.active == PAPER_TIME_MODEL
        assert store.active_version == 0

    def test_add_version_advances_active(self):
        store = ModelStore()
        fitted = TimeModel(1e-6, 2e-6, 0.7)
        version = store.add_version(
            fitted, records=24, window=200,
            mean_abs_error_before=0.5, mean_abs_error_after=0.01,
            wall=lambda: 123.0,
        )
        assert version.version == 1
        assert version.fitted_at == 123.0
        assert store.active == fitted
        assert store.active_version == 1

    def test_persistence_roundtrip(self, tmp_path):
        path = str(tmp_path / "models.json")
        store = ModelStore(path)
        fitted = TimeModel(1e-6, 2e-6, 0.7)
        store.add_version(
            fitted, records=24, window=200,
            mean_abs_error_before=0.5, mean_abs_error_after=0.01,
            residuals=[0.01, -0.02], wall=lambda: 1.0,
        )
        reloaded = ModelStore(path)
        assert reloaded.active == fitted
        assert reloaded.active_version == 1
        assert reloaded.versions[0].residuals == (0.01, -0.02)
        assert reloaded.versions[0].mean_abs_error_before == 0.5

    def test_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "models.json"
        path.write_text(json.dumps({"schema": 99, "versions": []}))
        with pytest.raises(ConfigurationError):
            ModelStore(str(path))

    def test_malformed_version_record_raises(self, tmp_path):
        path = tmp_path / "models.json"
        path.write_text(json.dumps(
            {"schema": 1, "versions": [{"version": 1}]}
        ))
        with pytest.raises(ConfigurationError):
            ModelStore(str(path))


class TestPublishModel:
    def test_gauges_expose_active_coefficients(self):
        registry = MetricsRegistry()
        publish_model(TimeModel(1.0, 2.0, 3.0), 7, registry=registry)
        values = registry.snapshot()
        assert values["setjoin_model_c1"]["value"] == 1.0
        assert values["setjoin_model_c2"]["value"] == 2.0
        assert values["setjoin_model_c3"]["value"] == 3.0
        assert values["setjoin_model_version"]["value"] == 7


class TestRecalibrator:
    def test_thin_history_does_not_refit(self):
        recalibrator = Recalibrator(registry=MetricsRegistry())
        outcome = recalibrator.maybe_recalibrate(skewed_history(count=5))
        assert not outcome.refit
        assert "too thin" in outcome.reason

    def test_bias_within_threshold_does_not_refit(self):
        recalibrator = Recalibrator(registry=MetricsRegistry())
        outcome = recalibrator.maybe_recalibrate(
            skewed_history(count=24, factor=1.05)
        )
        assert not outcome.refit
        assert "within threshold" in outcome.reason
        assert recalibrator.store.active_version == 0

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            Recalibrator(bias_threshold=0.0)
        with pytest.raises(ConfigurationError):
            Recalibrator(window=5, min_records=20)

    def test_two_times_skew_triggers_refit_cutting_mae(self):
        """≥20 joins under a 2× clock: refit must halve the error."""
        registry = MetricsRegistry()
        recalibrator = Recalibrator(registry=registry)
        history = skewed_history(count=24, factor=2.0)
        outcome = recalibrator.maybe_recalibrate(history, wall=lambda: 5.0)

        assert outcome.refit, outcome.reason
        version = outcome.version
        assert version.version == 1
        assert version.mean_abs_error_before == pytest.approx(0.5, abs=1e-6)
        assert version.mean_abs_error_after <= 0.5 * version.mean_abs_error_before
        # The fit recovers the true machine: exactly 2× the paper's
        # linear coefficients (the exponent c3 is scale-free).
        assert version.model.c1 == pytest.approx(
            2.0 * PAPER_TIME_MODEL.c1, rel=1e-3
        )
        assert version.model.c2 == pytest.approx(
            2.0 * PAPER_TIME_MODEL.c2, rel=1e-3
        )

        values = registry.snapshot()
        assert values["setjoin_model_refits_total"]["value"] == 1
        assert values["setjoin_model_version"]["value"] == 1
        assert values["setjoin_model_c1"]["value"] == pytest.approx(
            version.model.c1
        )

    def test_refitted_model_generalizes_to_held_out_joins(self):
        """The MAE cut holds on joins the fit never saw."""
        recalibrator = Recalibrator(registry=MetricsRegistry())
        outcome = recalibrator.maybe_recalibrate(skewed_history(count=24))
        assert outcome.refit
        held_out = samples_from_history([
            make_record(x=777_000.0, y=88_000.0, k=24, factor=2.0),
            make_record(x=55_000.0, y=9_000.0, k=48, factor=2.0),
        ])
        stale_error = PAPER_TIME_MODEL.mean_prediction_error(held_out)
        fresh_error = outcome.model.mean_prediction_error(held_out)
        assert fresh_error <= 0.5 * stale_error

    def test_reads_history_from_jsonl_path(self, tmp_path):
        path = str(tmp_path / "drift.jsonl")
        for record in skewed_history(count=24):
            append_drift_jsonl(record, path)
        store = ModelStore(str(tmp_path / "models.json"))
        outcome = Recalibrator(
            store=store, registry=MetricsRegistry()
        ).maybe_recalibrate(path)
        assert outcome.refit
        # The refit persisted: a fresh store resumes from the new model.
        assert ModelStore(str(tmp_path / "models.json")).active_version == 1

    def test_second_pass_on_corrected_history_stays_put(self):
        """Once the machine is modeled, a matching history needs no refit."""
        recalibrator = Recalibrator(registry=MetricsRegistry())
        outcome = recalibrator.maybe_recalibrate(skewed_history(count=24))
        assert outcome.refit
        fresh = recalibrator.model
        # New joins drift-checked against the *refitted* model show no bias.
        settled = [
            make_record(x=100_000.0 * (1 + i), y=20_000.0, k=16,
                        factor=1.0, model=fresh, timestamp=float(i))
            for i in range(24)
        ]
        again = recalibrator.maybe_recalibrate(settled)
        assert not again.refit
        assert "within threshold" in again.reason


class TestFakeClockClosedLoop:
    def test_real_joins_under_2x_clock_refit_and_correct(
        self, tmp_path, monkeypatch, small_workload
    ):
        """End to end: 21 analyzed joins under a 2× clock → refit →
        the next EXPLAIN plans with corrected predictions."""
        from repro.obs.explain import analyze_join, explain_join

        lhs, rhs = small_workload
        # The model of *this* machine: the paper's constants scaled to the
        # measured wall time of the same join, so that the 2× clock below —
        # not how fast the box and the code happen to run — is what makes
        # the history drift.
        ratios = sorted(
            record.observed["seconds"] / record.predicted["seconds"]
            for record in (
                analyze_join(
                    lhs, rhs, "DCJ", 8, model=PAPER_TIME_MODEL,
                    registry=MetricsRegistry(),
                ).drift
                for __ in range(5)
            )
        )
        local_model = TimeModel(
            PAPER_TIME_MODEL.c1 * ratios[2], PAPER_TIME_MODEL.c2 * ratios[2],
            PAPER_TIME_MODEL.c3,
        )

        real = time.perf_counter
        epoch = real()
        monkeypatch.setattr(
            time, "perf_counter",
            lambda: epoch + (real() - epoch) * 2.0,
        )

        drift_path = str(tmp_path / "drift.jsonl")
        for __ in range(21):
            analysis = analyze_join(
                lhs, rhs, "DCJ", 8, model=local_model,
                drift_path=drift_path, registry=MetricsRegistry(),
            )
        assert analysis.drift.observed["seconds"] > 0

        store = ModelStore(
            str(tmp_path / "models.json"), base_model=local_model
        )
        outcome = Recalibrator(
            store=store, registry=MetricsRegistry()
        ).maybe_recalibrate(drift_path)
        assert outcome.refit, outcome.reason
        version = outcome.version
        assert version.mean_abs_error_after <= (
            0.5 * version.mean_abs_error_before
        )

        report = explain_join(
            lhs, rhs, "DCJ", 8, model=store.active,
            drift_history=drift_path,
        )
        rendered = report.render()
        assert "drift_correction" in rendered
        assert report.root.corrected.get("seconds") is not None


class TestDriftCorrections:
    def test_empty_history_means_no_corrections(self):
        assert drift_corrections(None) == {}
        assert drift_corrections([]) == {}

    def test_consistent_2x_history_inflates_with_shrinkage(self):
        history = [make_record(factor=2.0) for __ in range(20)]
        corrections = drift_corrections(history)
        # ratio 2.0 over n=20 with prior strength 8: (20·2 + 8) / 28.
        assert corrections["DCJ"] == pytest.approx(48.0 / 28.0)

    def test_thin_history_barely_moves_the_factor(self):
        corrections = drift_corrections([make_record(factor=2.0)])
        assert corrections["DCJ"] == pytest.approx(10.0 / 9.0)

    def test_ratios_are_clamped(self):
        # e = −24 → raw ratio 0.04, clamped to 0.1 per record.
        history = [make_record(factor=0.04) for __ in range(1000)]
        corrections = drift_corrections(history, window=1000)
        assert corrections["DCJ"] == pytest.approx((1000 * 0.1 + 8.0) / 1008.0)

    def test_unusable_error_records_are_skipped(self):
        record = make_record()
        record.errors["seconds"] = 1.0  # would mean predicted 0
        assert drift_corrections([record]) == {}

    def test_negative_prior_rejected(self):
        with pytest.raises(ConfigurationError):
            drift_corrections([make_record()], prior_strength=-1.0)


class TestDriftAwarePlanChoice:
    def test_corrections_flip_the_winner(self, small_workload):
        lhs, rhs = small_workload
        baseline = choose_plan(lhs, rhs, PAPER_TIME_MODEL)
        loser = "PSJ" if baseline.algorithm == "DCJ" else "DCJ"
        flipped = choose_plan(
            lhs, rhs, PAPER_TIME_MODEL,
            drift_history={baseline.algorithm: 50.0, loser: 1.0},
        )
        assert flipped.algorithm == loser
        assert flipped.drift_corrections[baseline.algorithm] == 50.0

    def test_corrections_scale_predictions_not_raw(self, small_workload):
        lhs, rhs = small_workload
        plain = choose_plan(lhs, rhs, PAPER_TIME_MODEL)
        corrected = choose_plan(
            lhs, rhs, PAPER_TIME_MODEL, drift_history={"DCJ": 2.0, "PSJ": 2.0}
        )
        for before, after in zip(plain.candidates, corrected.candidates):
            assert after.raw_seconds == pytest.approx(before.raw_seconds)
            assert after.predicted_seconds == pytest.approx(
                after.raw_seconds * after.drift_correction
            )

    def test_resolve_accepts_every_history_shape(self, tmp_path):
        assert resolve_drift_corrections(None) == {}
        assert resolve_drift_corrections({"DCJ": 1.5}) == {"DCJ": 1.5}
        records = [make_record(factor=2.0) for __ in range(20)]
        from_records = resolve_drift_corrections(records)
        path = str(tmp_path / "drift.jsonl")
        for record in records:
            append_drift_jsonl(record, path)
        assert resolve_drift_corrections(path) == pytest.approx(from_records)
        # A path that does not exist yet is an empty history, not an error.
        assert resolve_drift_corrections(str(tmp_path / "missing.jsonl")) == {}


class TestExecutionUnchangedByAdaptation:
    """Adaptation steers *planning* only: the executed join is untouched."""

    @pytest.mark.parametrize("algorithm", ["DCJ", "PSJ"])
    def test_forced_algorithm_bit_identical(self, small_workload, algorithm):
        lhs, rhs = small_workload
        plain_pairs, plain = containment_join(
            lhs, rhs, algorithm, 8
        )
        adapted_pairs, adapted = containment_join(
            lhs, rhs, algorithm, 8,
            drift_history={"DCJ": 3.0, "PSJ": 0.5},
        )
        assert adapted_pairs == plain_pairs
        assert adapted.signature_comparisons == plain.signature_comparisons
        assert adapted.replicated_signatures == plain.replicated_signatures
        assert adapted.candidates == plain.candidates

    def test_auto_with_agreeing_history_bit_identical(self, small_workload):
        lhs, rhs = small_workload
        plain_pairs, plain = containment_join(lhs, rhs, "auto")
        adapted_pairs, adapted = containment_join(
            lhs, rhs, "auto", drift_history={}
        )
        assert adapted_pairs == plain_pairs
        assert adapted.algorithm == plain.algorithm
        assert adapted.signature_comparisons == plain.signature_comparisons
        assert adapted.replicated_signatures == plain.replicated_signatures
