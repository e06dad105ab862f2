"""Tests for the benchmark baseline harness (benchmarks/baseline.py).

The harness is a script, not a package module, so it is loaded via
importlib straight from the benchmarks/ directory.  Suites run at a
small ``--scale`` to keep the tests quick; the regression logic itself
is exercised on doctored snapshots (flipped counters, and injected
slowdowns that must pass) so the gate is proven to trip on counters and
only on counters.
"""

import copy
import importlib.util
import json
import pathlib

import pytest

BASELINE_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "baseline.py"
)


@pytest.fixture(scope="module")
def baseline():
    spec = importlib.util.spec_from_file_location("bench_baseline", BASELINE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def snapshot(baseline):
    return baseline.run_suite(scale=0.1)


class TestSuite:
    def test_covers_all_canonical_workloads(self, baseline, snapshot):
        names = {spec["name"] for spec in baseline.canonical_workloads(0.1)}
        assert set(snapshot["workloads"]) == names
        assert {"auto_uniform", "dcj_k16", "psj_k16",
                "dcj_k16_workers2"} == names

    def test_workloads_produce_actual_results(self, snapshot):
        # The canonical inputs are tuned so containments exist — the
        # snapshot must cover verification, not just the filter path.
        for name, record in snapshot["workloads"].items():
            assert record["results"] > 0, name
            assert record["signature_comparisons"] > 0, name

    def test_counters_are_deterministic_across_runs(self, baseline, snapshot):
        again = baseline.run_suite(scale=0.1)
        for name, record in snapshot["workloads"].items():
            for key in baseline.COUNTER_KEYS:
                assert again["workloads"][name][key] == record[key], (
                    name, key,
                )

    def test_parallel_workload_matches_serial_counters(self, snapshot):
        serial = snapshot["workloads"]["dcj_k16"]
        parallel = snapshot["workloads"]["dcj_k16_workers2"]
        for key in ("signature_comparisons", "replicated_signatures",
                    "candidates", "results"):
            assert parallel[key] == serial[key], key

    def test_snapshot_roundtrips_through_json(
        self, baseline, snapshot, tmp_path
    ):
        path = str(tmp_path / "BENCH_joins.json")
        baseline.write_baseline(snapshot, path)
        assert baseline.load_baseline(path) == json.loads(
            json.dumps(snapshot)
        )


class TestCheckRegression:
    def test_identical_snapshots_pass(self, baseline, snapshot):
        assert baseline.check_regression(snapshot, snapshot) == []

    def test_counters_only_ignores_the_slowdown(self, baseline, snapshot):
        # Halving the baseline's wall times makes the (unchanged) current
        # run look twice as slow; the gate checks counters, not time.
        slower_world = copy.deepcopy(snapshot)
        for record in slower_world["workloads"].values():
            record["wall_seconds"] /= 2.0
        assert baseline.check_regression(snapshot, slower_world) == []

    def test_counter_drift_fails_even_counters_only(self, baseline, snapshot):
        doctored = copy.deepcopy(snapshot)
        doctored["workloads"]["dcj_k16"]["signature_comparisons"] += 1
        failures = baseline.check_regression(doctored, snapshot)
        assert len(failures) == 1
        assert "dcj_k16: signature_comparisons changed" in failures[0]

    def test_missing_workload_is_flagged(self, baseline, snapshot):
        partial = copy.deepcopy(snapshot)
        del partial["workloads"]["psj_k16"]
        failures = baseline.check_regression(partial, snapshot)
        assert ["psj_k16: missing from current run"] == failures

    def test_schema_and_scale_mismatches_short_circuit(
        self, baseline, snapshot
    ):
        other_schema = dict(snapshot, schema=snapshot["schema"] + 1)
        failures = baseline.check_regression(snapshot, other_schema)
        assert len(failures) == 1 and "schema mismatch" in failures[0]
        other_scale = dict(snapshot, scale=snapshot["scale"] * 2)
        failures = baseline.check_regression(snapshot, other_scale)
        assert len(failures) == 1 and "scale mismatch" in failures[0]


class TestMain:
    def test_writes_snapshot_and_passes_self_check(
        self, baseline, tmp_path, capsys
    ):
        out = str(tmp_path / "BENCH_joins.json")
        assert baseline.main(["--out", out, "--scale", "0.1"]) == 0
        first = baseline.load_baseline(out)
        assert set(first["workloads"]) == {
            "auto_uniform", "dcj_k16", "psj_k16", "dcj_k16_workers2",
        }
        # Checking a fresh run against that snapshot passes (counters
        # are deterministic; timing noise is excluded).
        assert baseline.main([
            "--out", out, "--scale", "0.1", "--check", out,
        ]) == 0
        assert "no regression" in capsys.readouterr().out

    def test_exits_nonzero_on_regression(self, baseline, tmp_path, capsys):
        out = str(tmp_path / "BENCH_joins.json")
        assert baseline.main(["--out", out, "--scale", "0.1"]) == 0
        doctored = baseline.load_baseline(out)
        doctored["workloads"]["dcj_k16"]["results"] += 7
        doctored_path = str(tmp_path / "doctored.json")
        baseline.write_baseline(doctored, doctored_path)
        assert baseline.main([
            "--out", out, "--scale", "0.1",
            "--check", doctored_path,
        ]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [
        "--counters-only", "--time-threshold=0.25", "--history=h.jsonl",
        "--rolling-window=5", "--profile=p.txt", "--profile-repeats=5",
    ])
    def test_retired_timing_flags_are_rejected(self, baseline, flag):
        with pytest.raises(SystemExit) as exit_info:
            baseline.main([flag])
        assert exit_info.value.code == 2

    def test_trace_option_writes_a_valid_trace(self, baseline, tmp_path):
        out = str(tmp_path / "BENCH_joins.json")
        trace = str(tmp_path / "trace.jsonl")
        assert baseline.main([
            "--out", out, "--scale", "0.1", "--trace", trace,
        ]) == 0
        from repro.obs.export import read_trace_jsonl

        records = read_trace_jsonl(trace)  # validates schema + linkage
        assert any(record["name"] == "join" for record in records)
