"""Tests for the model-drift layer (repro.obs.drift)."""

import json

import pytest

from repro.analysis.timemodel import PAPER_TIME_MODEL, CalibrationSample
from repro.core.metrics import JoinMetrics
from repro.errors import ConfigurationError
from repro.obs.drift import (
    DRIFT_KEYS,
    DriftRecord,
    append_drift_jsonl,
    calibration_residuals,
    compute_drift,
    drift_line,
    read_drift_jsonl,
    record_drift,
    summarize_drift,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.rotation import environment_fingerprint, rotate_jsonl


def rotate_drift(path, **kwargs):
    """A drift history rotates through the shared rotation, its lines
    parsed back into records (what the service's drift sink does)."""
    return rotate_jsonl(path, parse=drift_line, **kwargs)


def make_metrics(**overrides):
    metrics = JoinMetrics(algorithm="DCJ", num_partitions=8,
                          r_size=60, s_size=90)
    metrics.signature_comparisons = 1000
    metrics.replicated_signatures = 200
    metrics.partitioning.seconds = 0.25
    metrics.joining.seconds = 0.5
    metrics.verification.seconds = 0.25
    for key, value in overrides.items():
        setattr(metrics, key, value)
    return metrics


def make_record(errors=None):
    return DriftRecord(
        timestamp=1234.5, algorithm="DCJ", k=8, r_size=60, s_size=90,
        predicted={"seconds": 0.5, "comparisons": 900, "replicated": 200},
        observed={"seconds": 1.0, "comparisons": 1000, "replicated": 200},
        errors=errors if errors is not None else {
            "seconds": 0.5, "comparisons": 0.1, "replicated": 0.0,
        },
    )


class TestComputeDrift:
    def test_signed_errors_per_key(self):
        prediction = {"seconds": 0.5, "comparisons": 900, "replicated": 100}
        record = compute_drift(prediction, make_metrics(), wall=lambda: 7.0)
        assert record.timestamp == 7.0
        assert record.algorithm == "DCJ" and record.k == 8
        # total observed time 1.0s vs predicted 0.5s → model undershot.
        assert record.errors["seconds"] == pytest.approx(0.5)
        assert record.errors["comparisons"] == pytest.approx(0.1)
        assert record.errors["replicated"] == pytest.approx(0.5)

    def test_metrics_style_key_aliases_are_refused(self):
        """One spelling: a prediction is JoinPlan.prediction()'s keys."""
        prediction = {
            "seconds": 1.0,
            "signature_comparisons": 1000,
            "replicated_signatures": 200,
        }
        with pytest.raises(ConfigurationError, match="comparisons"):
            compute_drift(prediction, make_metrics(), wall=lambda: 0.0)

    def test_given_observations_replace_the_metrics(self):
        record = compute_drift(
            {"seconds": 1.0, "comparisons": 1000, "replicated": 200},
            make_metrics(), wall=lambda: 0.0,
            observed={"seconds": 2.0, "comparisons": 1000, "replicated": 100,
                      "results": 7},
        )
        assert record.observed == {
            "seconds": 2.0, "comparisons": 1000, "replicated": 100,
        }
        assert record.errors["seconds"] == pytest.approx(0.5)
        assert record.errors["replicated"] == pytest.approx(-1.0)

    def test_missing_prediction_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="missing"):
            compute_drift({"seconds": 1.0}, make_metrics(), wall=lambda: 0.0)

    def test_zero_observation_handling(self):
        metrics = make_metrics(replicated_signatures=0)
        record = compute_drift(
            {"seconds": 1.0, "comparisons": 1000, "replicated": 50},
            metrics, wall=lambda: 0.0,
        )
        # Observed zero with non-zero prediction: no meaningful ratio.
        assert record.errors["replicated"] is None


class TestRecordDrift:
    def test_publishes_counter_gauges_and_histograms(self):
        registry = MetricsRegistry()
        record_drift(make_record(), registry=registry)
        assert registry.get("setjoin_drift_records_total").value == 1
        for key in DRIFT_KEYS:
            gauge = registry.get(f"setjoin_drift_last_{key}_relative_error")
            assert gauge is not None, key
            histogram = registry.get(f"setjoin_drift_{key}_abs_error")
            assert histogram.count == 1, key
        assert registry.get(
            "setjoin_drift_last_seconds_relative_error"
        ).value == pytest.approx(0.5)

    def test_histogram_sees_absolute_errors(self):
        registry = MetricsRegistry()
        record_drift(make_record(errors={"seconds": -0.5}), registry=registry)
        assert registry.get(
            "setjoin_drift_seconds_abs_error"
        ).sum == pytest.approx(0.5)
        # The gauge keeps the sign (last join over-predicted).
        assert registry.get(
            "setjoin_drift_last_seconds_relative_error"
        ).value == pytest.approx(-0.5)

    def test_none_errors_are_skipped(self):
        registry = MetricsRegistry()
        record_drift(
            make_record(errors={"seconds": None, "comparisons": 0.1}),
            registry=registry,
        )
        assert registry.get("setjoin_drift_last_seconds_relative_error") is None
        assert registry.get(
            "setjoin_drift_last_comparisons_relative_error"
        ).value == pytest.approx(0.1)


class TestJsonlHistory:
    def test_append_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "drift.jsonl")
        append_drift_jsonl(make_record(), path)
        append_drift_jsonl(make_record(), path)
        records = read_drift_jsonl(path)
        assert len(records) == 2
        assert records[0].to_dict() == make_record().to_dict()

    def test_lines_are_json_objects(self, tmp_path):
        path = str(tmp_path / "drift.jsonl")
        append_drift_jsonl(make_record(), path)
        with open(path) as handle:
            (line,) = [l for l in handle if l.strip()]
        document = json.loads(line)
        assert document["algorithm"] == "DCJ"
        assert document["errors"]["seconds"] == 0.5

    def test_malformed_record_is_a_configuration_error(self, tmp_path):
        path = str(tmp_path / "drift.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps({"timestamp": 1.0}) + "\n")
        with pytest.raises(ConfigurationError, match="malformed drift record"):
            read_drift_jsonl(path)

    def test_from_dict_rejects_non_dict_fields(self):
        document = make_record().to_dict()
        document["predicted"] = "not-a-dict"
        with pytest.raises(ConfigurationError, match="malformed drift record"):
            DriftRecord.from_dict(document)


class TestSummarizeDrift:
    def test_mean_abs_bias_and_max(self):
        records = [
            make_record(errors={"seconds": 0.2}),
            make_record(errors={"seconds": -0.4}),
        ]
        summary = summarize_drift(records)
        assert summary["records"] == 2
        assert summary["seconds"]["mean_abs_error"] == pytest.approx(0.3)
        assert summary["seconds"]["bias"] == pytest.approx(-0.1)
        assert summary["seconds"]["max_abs_error"] == pytest.approx(0.4)

    def test_keys_without_errors_are_none(self):
        summary = summarize_drift([make_record(errors={"seconds": 0.1})])
        assert summary["comparisons"] is None
        assert summary["replicated"] is None

    def test_empty_history(self):
        summary = summarize_drift([])
        assert summary["records"] == 0
        assert all(summary[key] is None for key in DRIFT_KEYS)


class TestCalibrationResiduals:
    def test_residuals_match_the_model(self):
        sample = CalibrationSample(
            comparisons=10_000, replicated_signatures=500,
            num_partitions=16, seconds=0.02,
        )
        (row,) = calibration_residuals(PAPER_TIME_MODEL, [sample])
        predicted = PAPER_TIME_MODEL.predict(10_000, 500, 16)
        assert row["predicted_seconds"] == pytest.approx(predicted)
        assert row["observed_seconds"] == 0.02
        assert row["relative_error"] == pytest.approx(
            (0.02 - predicted) / 0.02
        )

    def test_perfect_prediction_has_zero_residual(self):
        predicted = PAPER_TIME_MODEL.predict(10_000, 500, 16)
        sample = CalibrationSample(
            comparisons=10_000, replicated_signatures=500,
            num_partitions=16, seconds=predicted,
        )
        (row,) = calibration_residuals(PAPER_TIME_MODEL, [sample])
        assert row["relative_error"] == pytest.approx(0.0)


class TestRotateDriftJsonl:
    """Startup rotation: size caps and environment fingerprinting."""

    def write_history(self, path, n):
        for __ in range(n):
            append_drift_jsonl(make_record(), str(path))

    def test_missing_file_writes_meta_sidecar_only(self, tmp_path):
        path = tmp_path / "drift.jsonl"
        out = rotate_drift(str(path))
        assert out == {"archived": False, "rotated": False,
                       "kept": 0, "dropped": 0}
        assert not path.exists()
        meta = json.loads((tmp_path / "drift.jsonl.meta.json").read_text())
        assert set(meta["fingerprint"]) == {
            "platform", "machine", "python", "cpus"
        }

    def test_small_file_under_cap_untouched(self, tmp_path):
        path = tmp_path / "drift.jsonl"
        self.write_history(path, 5)
        before = path.read_text()
        out = rotate_drift(str(path), max_bytes=1 << 20)
        assert not out["rotated"]
        assert path.read_text() == before

    def test_oversize_file_compacts_to_newest_records(self, tmp_path):
        path = tmp_path / "drift.jsonl"
        self.write_history(path, 50)
        out = rotate_drift(str(path), max_bytes=100, keep=10)
        assert out["rotated"]
        assert out["kept"] == 10 and out["dropped"] == 40
        assert len(read_drift_jsonl(str(path))) == 10

    def test_compaction_sheds_malformed_lines(self, tmp_path):
        path = tmp_path / "drift.jsonl"
        self.write_history(path, 5)
        with open(path, "a") as handle:
            handle.write("{not json}\n")
            handle.write('{"timestamp": 1}\n')  # missing required keys
        rotate_drift(str(path), max_bytes=10, keep=100)
        assert len(read_drift_jsonl(str(path))) == 5  # all valid, no junk

    def test_foreign_fingerprint_archives_the_history(self, tmp_path):
        path = tmp_path / "drift.jsonl"
        self.write_history(path, 3)
        # Stamp the sidecar as if written on another machine.
        alien = dict(environment_fingerprint(), machine="vax780")
        (tmp_path / "drift.jsonl.meta.json").write_text(
            json.dumps({"fingerprint": alien})
        )
        out = rotate_drift(str(path))
        assert out["archived"]
        assert not path.exists()  # moved aside, not silently reused
        assert len(read_drift_jsonl(str(path) + ".stale")) == 3
        # The sidecar now names the current environment.
        meta = json.loads((tmp_path / "drift.jsonl.meta.json").read_text())
        assert meta["fingerprint"] == environment_fingerprint()

    def test_matching_fingerprint_keeps_the_history(self, tmp_path):
        path = tmp_path / "drift.jsonl"
        self.write_history(path, 3)
        rotate_drift(str(path))   # stamps the current fingerprint
        out = rotate_drift(str(path))  # second startup: same machine
        assert not out["archived"]
        assert len(read_drift_jsonl(str(path))) == 3
