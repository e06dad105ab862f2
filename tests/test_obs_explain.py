"""Tests for the EXPLAIN/ANALYZE plan inspector (repro.obs.explain).

Every duration an ANALYZE report shows comes from the tracer's injected
clocks, so the rendered plan trees below are fully deterministic and
snapshot-comparable: two runs under the same fake clock must render
byte-identical output.
"""

import json

import pytest

from repro.core.api import containment_join
from repro.core.optimizer import JoinPlan
from repro.data.workloads import uniform_workload
from repro.errors import ConfigurationError
from repro.obs.explain import (
    AnalyzeResult,
    ExplainReport,
    PlanNode,
    analyze_join,
    build_plan_from_statistics,
    explain_join,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer


class FakeClock:
    """Monotonic clock advancing ``step`` seconds per call."""

    def __init__(self, start=0.0, step=1.0):
        self.now = start
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


def make_tracer(step=0.25, epoch=1000.0):
    return Tracer(clock=FakeClock(step=step), wall=lambda: epoch)


@pytest.fixture()
def relations():
    return uniform_workload(
        r_size=60, s_size=90, theta_r=6, theta_s=12, domain_size=200, seed=7
    ).materialize()


class TestPlanNode:
    def test_errors_use_signed_convention(self):
        node = PlanNode("n", predicted={"seconds": 8.0}, observed={"seconds": 10.0})
        # Model undershot: the run took longer than predicted → positive.
        assert node.errors()["seconds"] == pytest.approx(0.2)

    def test_zero_observation_yields_none_unless_both_zero(self):
        node = PlanNode(
            "n",
            predicted={"a": 5.0, "b": 0.0},
            observed={"a": 0.0, "b": 0.0},
        )
        errors = node.errors()
        assert errors["a"] is None
        assert errors["b"] == 0.0

    def test_non_numeric_and_unpaired_keys_are_skipped(self):
        node = PlanNode(
            "n",
            predicted={"label": "DCJ", "only_pred": 1.0, "flag": True, "x": 2.0},
            observed={"label": "PSJ", "only_obs": 3.0, "flag": False, "x": 4.0},
        )
        assert set(node.errors()) == {"x"}

    def test_to_dict_is_json_able_and_recursive(self):
        root = PlanNode("root", kind="join", predicted={"seconds": 1.0})
        root.add(PlanNode("child", kind="phase", observed={"seconds": 2.0}))
        document = json.loads(json.dumps(root.to_dict()))
        assert document["name"] == "root"
        assert document["children"][0]["name"] == "child"
        assert "errors" in document

    def test_walk_yields_every_node(self):
        root = PlanNode("root")
        child = root.add(PlanNode("child"))
        child.add(PlanNode("grandchild"))
        assert [node.name for node in root.walk()] == [
            "root", "child", "grandchild",
        ]


class TestExplain:
    def test_dcj_plan_renders_operator_tree(self, relations):
        lhs, rhs = relations
        report = explain_join(lhs, rhs, algorithm="DCJ", num_partitions=8)
        text = report.render()
        assert report.mode == "explain"
        assert "set containment join" in text
        # The α/β operator tree with per-level hash functions (k=8 → 3
        # levels, root α on h1).
        assert "α(h1)" in text
        assert "β(h2)" in text
        assert "p_replicate_s" in text
        assert "p_replicate_r" in text
        assert "E_copies_r" in text
        # All three phases, predictions on the modelled two.
        for phase in ("phase.partition", "phase.join", "phase.verify"):
            assert phase in text
        assert "predicted" in text
        assert "observed" not in text  # EXPLAIN never executes

    def test_explain_is_deterministic(self, relations):
        lhs, rhs = relations
        first = explain_join(lhs, rhs, algorithm="DCJ", num_partitions=8)
        second = explain_join(lhs, rhs, algorithm="DCJ", num_partitions=8)
        assert first.render() == second.render()

    def test_psj_plan_has_no_operator_tree(self, relations):
        lhs, rhs = relations
        text = explain_join(
            lhs, rhs, algorithm="PSJ", num_partitions=8
        ).render()
        assert "PSJ" in text
        assert "α(" not in text and "β(" not in text
        assert "phase.partition" in text

    def test_auto_resolves_to_the_optimizer_choice(self, relations):
        lhs, rhs = relations
        report = explain_join(lhs, rhs, algorithm="auto")
        assert report.root.detail.split()[0] in {"DCJ", "PSJ", "LSJ"}
        assert "k=" in report.root.detail

    def test_workers_show_in_the_join_phase_detail(self, relations):
        lhs, rhs = relations
        text = explain_join(
            lhs, rhs, algorithm="DCJ", num_partitions=8,
            workers=2, backend="serial",
        ).render()
        assert "workers=2 (serial backend)" in text

    def test_deep_operator_tree_is_elided_with_a_note(self, relations):
        lhs, rhs = relations
        text = explain_join(
            lhs, rhs, algorithm="DCJ", num_partitions=32, operator_levels=2
        ).render()
        assert "operator nodes elided" in text
        # Only levels 0 and 1 rendered: h1 and h2, never h3.
        assert "α(h1)" in text
        assert "(h3)" not in text

    def test_empty_relation_is_a_configuration_error(self, relations):
        lhs, rhs = relations
        from repro.core.sets import Relation

        with pytest.raises(ConfigurationError):
            explain_join(Relation([]), rhs)

    def test_build_plan_rejects_non_positive_theta(self):
        plan = JoinPlan("DCJ", 8, 1.0, 0.0, 12.0, 100, 100)
        with pytest.raises(ConfigurationError):
            build_plan_from_statistics(plan)

    def test_time_terms_split_onto_the_phases(self, relations):
        lhs, rhs = relations
        report = explain_join(lhs, rhs, algorithm="DCJ", num_partitions=8)
        phases = {node.name: node for node in report.root.children}
        total = report.root.predicted["seconds"]
        split = (
            phases["phase.partition"].predicted["seconds"]
            + phases["phase.join"].predicted["seconds"]
        )
        assert split == pytest.approx(total)
        # Verification is outside the paper's model.
        assert "seconds" not in phases["phase.verify"].predicted


class TestAnalyze:
    def analyze(self, relations, **kwargs):
        lhs, rhs = relations
        kwargs.setdefault("tracer", make_tracer())
        kwargs.setdefault("registry", MetricsRegistry())
        kwargs.setdefault("wall", lambda: 1234.5)
        return analyze_join(lhs, rhs, **kwargs)

    def test_dcj_snapshot_is_deterministic_under_fake_clocks(self, relations):
        first = self.analyze(relations, algorithm="DCJ", num_partitions=8)
        second = self.analyze(relations, algorithm="DCJ", num_partitions=8)
        assert isinstance(first, AnalyzeResult)
        assert first.render() == second.render()
        text = first.render()
        assert "observed" in text and "err" in text
        assert "α(h1)" in text
        # The error column renders signed percentages.
        assert "%" in text

    def test_psj_snapshot_is_deterministic_under_fake_clocks(self, relations):
        first = self.analyze(relations, algorithm="PSJ", num_partitions=8)
        second = self.analyze(relations, algorithm="PSJ", num_partitions=8)
        assert first.render() == second.render()
        assert "PSJ" in first.render()

    def test_parallel_analyze_shows_shards_and_is_deterministic(
        self, relations
    ):
        kwargs = dict(
            algorithm="DCJ", num_partitions=8, workers=2, backend="serial"
        )
        first = self.analyze(relations, **kwargs)
        second = self.analyze(relations, **kwargs)
        assert first.render() == second.render()
        text = first.render()
        assert "shard 0" in text and "shard 1" in text

    def test_serial_analyze_shows_per_partition_rows(self, relations):
        text = self.analyze(
            relations, algorithm="DCJ", num_partitions=8
        ).render()
        assert "partition " in text

    def test_analyze_is_bit_identical_to_a_plain_join(self, relations):
        lhs, rhs = relations
        for algorithm, workers in (("DCJ", 1), ("PSJ", 1), ("DCJ", 2)):
            result = self.analyze(
                relations, algorithm=algorithm, num_partitions=8,
                workers=workers, backend="serial",
            )
            pairs, metrics = containment_join(
                lhs, rhs, algorithm=algorithm, num_partitions=8,
                workers=workers, backend="serial",
            )
            assert result.pairs == pairs
            assert (
                result.metrics.signature_comparisons
                == metrics.signature_comparisons
            )
            assert (
                result.metrics.replicated_signatures
                == metrics.replicated_signatures
            )
            assert result.metrics.candidates == metrics.candidates
            assert result.metrics.result_size == metrics.result_size

    def test_observed_counters_come_from_the_metrics(self, relations):
        result = self.analyze(relations, algorithm="DCJ", num_partitions=8)
        root = result.report.root
        assert root.observed["comparisons"] == (
            result.metrics.signature_comparisons
        )
        assert root.observed["replicated"] == (
            result.metrics.replicated_signatures
        )
        assert root.observed["results"] == result.metrics.result_size

    def test_drift_is_recorded_into_the_registry(self, relations):
        registry = MetricsRegistry()
        self.analyze(
            relations, algorithm="DCJ", num_partitions=8, registry=registry
        )
        assert registry.get("setjoin_drift_records_total").value == 1
        gauge = registry.get("setjoin_drift_last_comparisons_relative_error")
        assert gauge is not None
        histogram = registry.get("setjoin_drift_seconds_abs_error")
        assert histogram.count == 1

    def test_drift_jsonl_written_with_injected_wall_clock(
        self, relations, tmp_path
    ):
        path = str(tmp_path / "drift.jsonl")
        result = self.analyze(
            relations, algorithm="DCJ", num_partitions=8, drift_path=path
        )
        from repro.obs.drift import read_drift_jsonl

        records = read_drift_jsonl(path)
        assert len(records) == 1
        assert records[0].timestamp == 1234.5
        assert records[0].algorithm == "DCJ"
        assert records[0].to_dict() == result.drift.to_dict()

    def test_report_to_dict_is_json_able(self, relations):
        result = self.analyze(relations, algorithm="DCJ", num_partitions=8)
        document = json.loads(json.dumps(result.report.to_dict()))
        assert document["mode"] == "analyze"
        assert document["plan"]["kind"] == "join"


class TestRendering:
    def test_explain_report_marks_mode(self):
        report = ExplainReport(root=PlanNode("root"), mode="explain")
        assert not report.analyzed
        report.mode = "analyze"
        assert report.analyzed

    def test_none_values_render_as_middle_dot(self):
        root = PlanNode(
            "root", predicted={"seconds": None}, observed={"seconds": 1.0}
        )
        report = ExplainReport(root=root, mode="analyze")
        line = [l for l in report.render().splitlines() if "seconds" in l][0]
        assert "·" in line
