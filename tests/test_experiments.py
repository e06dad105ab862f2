"""Tests for the experiment harness — every figure regenerates and its
golden numbers match the paper."""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    experiment_ids,
    format_table,
    get_experiment,
)
from repro.errors import ConfigurationError

EXPECTED_IDS = {
    "worked-example", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10", "calibration", "accuracy", "optimizer", "scaling", "prediction",
    "baselines",
    "ablation-alternation", "ablation-hash-family", "ablation-firing",
    "ablation-portions", "ablation-buffer", "ablation-hybrid",
    "ablation-options", "ablation-modulo", "ablation-skew", "scorecard",
}


class TestRegistry:
    def test_all_expected_experiments_registered(self):
        assert EXPECTED_IDS <= set(experiment_ids())

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigurationError):
            get_experiment("fig99")


class TestFormatting:
    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [{"a": 1, "bb": 2.5}, {"a": 10}])
        lines = table.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "bb" in lines[0]

    def test_to_tsv_and_save(self, tmp_path):
        result = ExperimentResult(
            "demo-save", "t", ["a", "b"], rows=[{"a": 1, "b": 2}, {"a": 3}]
        )
        tsv = result.to_tsv()
        assert tsv.splitlines() == ["a\tb", "1\t2", "3\t"]
        txt_path, tsv_path = result.save(str(tmp_path))
        assert open(txt_path).read().startswith("== demo-save")
        assert open(tsv_path).read() == tsv

    def test_render_includes_sections(self):
        result = ExperimentResult("x", "title", ["c"], rows=[{"c": 1}])
        result.paper_claims = ["claim"]
        result.notes = ["note"]
        text = result.render()
        assert "title" in text
        assert "claim" in text
        assert "note" in text


class TestWorkedExample:
    def test_every_measured_value_matches_paper(self):
        result = get_experiment("worked-example")()
        for row in result.rows:
            if row["paper"] in ("", "n/a"):
                continue
            assert row["measured"] == row["paper"], row


class TestAnalyticalFigures:
    def test_fig4_dcj_single_curve(self):
        result = get_experiment("fig4")()
        assert any("comp_DCJ" in column for column in result.columns)
        for row in result.rows:
            assert 0 <= row["comp_DCJ"] <= 1

    def test_fig5_dcj_below_psj_for_theta_s_above_theta_r(self):
        result = get_experiment("fig5")()
        for row in result.rows:
            if row["theta_S"] >= 100:
                assert row["comp_DCJ"] <= row["comp_PSJ"]

    def test_fig6_dcj_below_lsj(self):
        result = get_experiment("fig6")()
        for row in result.rows:
            assert row["repl_DCJ"] <= row["repl_LSJ"]

    def test_fig7_ordering(self):
        result = get_experiment("fig7")()
        for row in result.rows:
            assert row["repl_DCJ"] < row["repl_LSJ"]

    def test_fig10_frontier_shape(self):
        result = get_experiment("fig10")()
        lam1 = [row["breakeven_θR(λ=1)"] for row in result.rows]
        lam2 = [row["breakeven_θR(λ=2)"] for row in result.rows]
        assert lam1 == sorted(lam1)  # rises with relation size
        assert all(b > a for a, b in zip(lam1, lam2))
        by_size = {row["|R|=|S|"]: row for row in result.rows}
        assert by_size[128_000]["breakeven_θR(λ=2)"] == pytest.approx(50, abs=1)


class TestTestbedExperiments:
    """Smoke runs at tiny scale; shape checks only (timings are noisy)."""

    def test_fig8_runs_and_reports(self):
        result = get_experiment("fig8")(scale=0.02)
        assert len(result.rows) >= 4
        for row in result.rows:
            assert row["t_total_s"] > 0
            assert row["results"] >= 5  # planted pairs found

    def test_fig9_psj_replication_explodes_with_k(self):
        result = get_experiment("fig9")(scale=0.02)
        factors = [row["repl_factor"] for row in result.rows]
        assert factors == sorted(factors)

    def test_calibration_fits(self):
        tiny_grid = ((100, 100, 10, 20), (200, 200, 10, 20))
        result = get_experiment("calibration")(
            grid=tiny_grid, k_values=(4, 16), seed=3
        )
        by_constant = {row["constant"]: row["fitted"] for row in result.rows}
        assert by_constant["c1"] >= 0
        assert by_constant["mean error"] < 0.8

    def test_accuracy_small_grid(self):
        result = get_experiment("accuracy")(
            size=120, theta_r=10, theta_s=20, k=8,
            element_kinds=("uniform",), cardinality_kinds=("constant", "zipf"),
        )
        uniform_constant = [
            row for row in result.rows
            if row["elements"] == "uniform" and row["cardinalities"] == "constant"
        ]
        # On the model's home turf the prediction is tight.
        for row in uniform_constant:
            assert row["comp_err"] < 0.2

    def test_optimizer_demo_decisions(self):
        result = get_experiment("optimizer")()
        for row in result.rows:
            assert row["chosen"] == row["paper_expected"], row

    def test_baselines_lineage(self):
        result = get_experiment("baselines")(size=150)
        by_name = {row["algorithm"]: row for row in result.rows}
        # Everyone agrees on the result size.
        assert len({row["results"] for row in result.rows}) == 1
        # The unnested plan materializes far more intermediate rows than
        # DCJ compares signatures... relative to output, it is the blowup.
        assert by_name["SQL-unnested"]["work"] > by_name["SQL-unnested"]["results"] * 10

    def test_scaling_comparison_counts_grow_quadratically(self):
        result = get_experiment("scaling")(sizes=(100, 200))
        first, second = result.rows
        # Doubling |R| = |S| roughly quadruples comparisons for both.
        assert 2.5 < second["comparisons_DCJ"] / first["comparisons_DCJ"] < 6
        assert 2.5 < second["comparisons_PSJ"] / first["comparisons_PSJ"] < 6


class TestScorecard:
    def test_checks_mechanism(self):
        result = ExperimentResult("x", "t", ["c"])
        assert result.check("ok", True) is True
        assert result.check("bad", 0) is False
        assert not result.all_checks_pass
        rendered = result.render()
        assert "[PASS] ok" in rendered
        assert "[FAIL] bad" in rendered

    def test_analytical_experiments_all_pass(self):
        """Every deterministic (non-testbed) experiment's claim checks
        must pass — the heart of the reproduction."""
        for experiment_id in ("worked-example", "fig4", "fig5", "fig6",
                              "fig7", "fig10"):
            result = get_experiment(experiment_id)()
            assert result.checks, experiment_id
            failing = [d for d, ok in result.checks if not ok]
            assert not failing, (experiment_id, failing)

    def test_scorecard_skip_slow(self):
        result = get_experiment("scorecard")(skip_slow=True)
        by_name = {row["experiment"]: row for row in result.rows}
        assert by_name["fig8"]["status"] == "skipped (slow)"
        assert by_name["fig4"]["status"] == "PASS"
        # Every non-skipped experiment passed all its checks.
        failures = [row for row in result.rows
                    if row["status"] not in ("PASS", "skipped (slow)")]
        assert not failures, failures


class TestAblations:
    def test_alternation_minimizes_replication(self):
        result = get_experiment("ablation-alternation")(k=16)
        by_pattern = {row["pattern"]: row for row in result.rows}
        assert (
            by_pattern["alternating"]["replicated"]
            <= min(by_pattern["alpha"]["replicated"],
                   by_pattern["beta"]["replicated"])
        )
        # Comparison counts are pattern-independent.
        assert len({row["comparisons"] for row in result.rows}) == 1

    def test_hash_families_comparable(self):
        result = get_experiment("ablation-hash-family")(k=16)
        factors = [row["comp_factor"] for row in result.rows]
        assert max(factors) < 1.5 * min(factors)

    def test_firing_sweep_minimum_near_optimum(self):
        result = get_experiment("ablation-firing")(k=16)
        best = min(result.rows, key=lambda row: row["comp_factor_measured"])
        # q* = 2/3 for λ=2; the best measured b should be in the middle of
        # the sweep, not at the extremes.
        assert 0.35 < best["q_on_R"] < 0.9

    def test_portions_beat_monolithic(self):
        result = get_experiment("ablation-portions")()
        by_layout = {row["layout"]: row for row in result.rows}
        assert by_layout["portioned"]["ok"] is True
        assert by_layout["monolithic"]["ok"] is True
        assert (
            by_layout["portioned"]["t_partition_s"]
            < by_layout["monolithic"]["t_partition_s"]
        )

    def test_buffer_policies_all_correct(self):
        result = get_experiment("ablation-buffer")(k=8)
        assert {row["policy"] for row in result.rows} == {"lru", "clock", "fifo"}

    def test_hybrid_matches_plain_algorithms(self):
        result = get_experiment("ablation-hybrid")()
        results = {row["results"] for row in result.rows}
        assert len(results) == 1  # identical join output everywhere

    def test_skew_checks_pass(self):
        result = get_experiment("ablation-skew")(k=16)
        failing = [d for d, ok in result.checks if not ok]
        assert not failing, failing

    def test_options_resident_reduces_disk_signatures(self):
        result = get_experiment("ablation-options")(k=16)
        by_config = {row["configuration"]: row for row in result.rows}
        assert (
            by_config["resident=k"]["disk_signatures"] == 0
        )
        assert (
            by_config["resident=k/2"]["disk_signatures"]
            < by_config["baseline"]["disk_signatures"]
        )
        assert len({row["results"] for row in result.rows}) == 1

    def test_modulo_lands_between_power_of_two_points(self):
        result = get_experiment("ablation-modulo")()
        by_k = {row["k"]: row for row in result.rows}
        assert (
            by_k[64]["comp_factor"]
            <= by_k[48]["comp_factor"]
            <= by_k[32]["comp_factor"]
        )
        assert (
            by_k[32]["repl_factor"]
            <= by_k[48]["repl_factor"]
            <= by_k[64]["repl_factor"]
        )
