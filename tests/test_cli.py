"""Tests for the setjoins command-line interface."""

import pytest

from repro.cli import load_relation_file, main


@pytest.fixture()
def set_files(tmp_path):
    r_file = tmp_path / "r.txt"
    s_file = tmp_path / "s.txt"
    # The paper's example relations.
    r_file.write_text("1 5\n10 13\n1 3\n8 19\n")
    s_file.write_text("1 5 7\n8 10 13\n1 3 13\n# comment\n\n2 3 4\n")
    return str(r_file), str(s_file)


class TestLoadRelationFile:
    def test_parses_sets_with_line_number_tids(self, set_files):
        r_path, s_path = set_files
        relation = load_relation_file(r_path)
        assert relation.tids() == [0, 1, 2, 3]
        assert relation[0].elements == frozenset({1, 5})

    def test_skips_comments_and_blanks(self, set_files):
        __, s_path = set_files
        relation = load_relation_file(s_path)
        assert len(relation) == 4
        assert relation[5].elements == frozenset({2, 3, 4})  # line 5 (0-based)


class TestCommands:
    def test_join_outputs_pairs(self, set_files, capsys):
        r_path, s_path = set_files
        assert main(["join", r_path, s_path, "--algorithm", "dcj", "-k", "8"]) == 0
        output = capsys.readouterr().out
        pairs = {tuple(map(int, line.split())) for line in output.splitlines()}
        assert pairs == {(0, 0), (1, 1), (2, 2)}

    def test_join_auto_plans(self, set_files, capsys):
        r_path, s_path = set_files
        assert main(["join", r_path, s_path]) == 0
        err = capsys.readouterr().err
        assert "planned:" in err

    @pytest.mark.parametrize("algorithm", ["psj", "lsj"])
    def test_join_other_algorithms(self, set_files, capsys, algorithm):
        r_path, s_path = set_files
        assert main(["join", r_path, s_path, "--algorithm", algorithm]) == 0
        output = capsys.readouterr().out
        pairs = {tuple(map(int, line.split())) for line in output.splitlines()}
        assert pairs == {(0, 0), (1, 1), (2, 2)}

    @pytest.mark.parametrize("partitions", [48, 1])
    @pytest.mark.parametrize("algorithm", ["dcj", "lsj"])
    def test_join_folds_any_partition_count(self, set_files, capsys,
                                            algorithm, partitions):
        """k need not be a power of two: the CLI folds by the modulo
        approach, exactly as ``containment_join`` does."""
        from repro.core.api import containment_join

        r_path, s_path = set_files
        assert main(["join", r_path, s_path, "--algorithm", algorithm,
                     "--partitions", str(partitions)]) == 0
        captured = capsys.readouterr()
        pairs = {tuple(map(int, line.split()))
                 for line in captured.out.splitlines()}
        expected, metrics = containment_join(
            load_relation_file(r_path, "R"), load_relation_file(s_path, "S"),
            algorithm.upper(), partitions,
        )
        assert pairs == expected
        assert (f"{metrics.signature_comparisons} signature comparisons, "
                f"{metrics.replicated_signatures} replicated signatures"
                ) in captured.err

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_join_parallel_workers(self, set_files, capsys, backend):
        r_path, s_path = set_files
        assert main([
            "join", r_path, s_path, "--algorithm", "dcj", "-k", "8",
            "--workers", "2", "--parallel-backend", backend,
        ]) == 0
        captured = capsys.readouterr()
        pairs = {tuple(map(int, line.split()))
                 for line in captured.out.splitlines()}
        assert pairs == {(0, 0), (1, 1), (2, 2)}
        assert f"2 workers, {backend} backend" in captured.err

    def test_plan_reports_choice(self, set_files, capsys):
        r_path, s_path = set_files
        assert main(["plan", r_path, s_path]) == 0
        output = capsys.readouterr().out
        assert "algorithm:" in output
        assert "partitions:" in output

    def test_experiment_command(self, capsys):
        assert main(["experiment", "fig4"]) == 0
        assert "Comparison factor" in capsys.readouterr().out

    def test_demo_command(self, capsys):
        assert main(["demo"]) == 0
        output = capsys.readouterr().out
        assert "DCJ comparisons" in output

    def test_stats_command(self, set_files, capsys):
        r_path, s_path = set_files
        assert main(["stats", r_path, s_path]) == 0
        output = capsys.readouterr().out
        assert "relation R" in output
        assert "join estimates" in output
        assert "signature width" in output

    def test_stats_says_when_verification_is_elided(self, tmp_path, capsys):
        """Elements below 20: the lossless 24 bits undercut the estimate's
        answer for 40 × 40 sets of 3 and 12 elements."""
        r_file, s_file = tmp_path / "r.txt", tmp_path / "s.txt"
        r_file.write_text("".join(
            " ".join(str((i + t) % 20) for t in range(3)) + "\n"
            for i in range(40)))
        s_file.write_text("".join(
            " ".join(str((i + t) % 20) for t in range(12)) + "\n"
            for i in range(40)))
        assert main(["stats", str(r_file), str(s_file)]) == 0
        output = capsys.readouterr().out
        assert "recommended signature width ≥ 24 bits" in output
        assert ("160-bit signatures are lossless (every element < 160): "
                "verification elided") in output

    def test_stats_says_when_candidates_are_verified(self, tmp_path, capsys):
        r_file, s_file = tmp_path / "r.txt", tmp_path / "s.txt"
        r_file.write_text("1 5\n3\n")
        s_file.write_text("1 5 160\n2 3\n")
        assert main(["stats", str(r_file), str(s_file)]) == 0
        output = capsys.readouterr().out
        assert ("160-bit signatures are lossy (max element 160): "
                "candidates are verified") in output

    def test_stats_single_file(self, set_files, capsys):
        r_path, __ = set_files
        assert main(["stats", r_path]) == 0
        assert "cardinality" in capsys.readouterr().out

    def test_generate_roundtrips_through_join(self, tmp_path, capsys):
        out_r = str(tmp_path / "gen_r.txt")
        out_s = str(tmp_path / "gen_s.txt")
        assert main(["generate", out_r, "--size", "30", "--theta", "4",
                     "--domain", "200", "--seed", "1"]) == 0
        assert main(["generate", out_s, "--size", "30", "--theta", "12",
                     "--domain", "200", "--seed", "2",
                     "--distribution", "zipf"]) == 0
        capsys.readouterr()
        assert main(["join", out_r, out_s, "--algorithm", "psj"]) == 0

    def test_generate_distributions(self, tmp_path):
        for distribution in ("selfsimilar", "normal", "clustered"):
            out = str(tmp_path / f"{distribution}.txt")
            assert main(["generate", out, "--size", "15",
                         "--distribution", distribution,
                         "--cardinality", "bimodal"]) == 0

    def test_db_workflow(self, set_files, capsys, tmp_path):
        r_path, s_path = set_files
        db_path = str(tmp_path / "cli.db")
        assert main(["db", db_path, "load", "R", r_path]) == 0
        assert main(["db", db_path, "load", "S", s_path]) == 0
        capsys.readouterr()
        assert main(["db", db_path, "list"]) == 0
        assert "R\t4 tuples" in capsys.readouterr().out
        assert main(["db", db_path, "explain", "R", "S"]) == 0
        assert "chosen:" in capsys.readouterr().out
        assert main(["db", db_path, "join", "R", "S"]) == 0
        pairs = {
            tuple(map(int, line.split()))
            for line in capsys.readouterr().out.splitlines()
        }
        assert pairs == {(0, 0), (1, 1), (2, 2)}
        assert main(["db", db_path, "drop", "R"]) == 0
        capsys.readouterr()
        assert main(["db", db_path, "list"]) == 0
        assert "R\t" not in capsys.readouterr().out

    def test_db_bad_usage(self, tmp_path, capsys):
        db_path = str(tmp_path / "cli.db")
        assert main(["db", db_path, "load", "onlyname"]) == 2
        assert main(["db", db_path, "join", "R"]) == 2
        assert main(["db", db_path, "drop"]) == 2

    def test_missing_file_is_error(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.txt")
        assert main(["join", missing, missing]) == 1

    def test_unknown_experiment_is_error(self, capsys):
        assert main(["experiment", "fig99"]) == 1


class TestPlanInspectorFlags:
    def test_explain_prints_the_plan_without_executing(self, set_files, capsys):
        r_path, s_path = set_files
        assert main(["join", r_path, s_path, "--algorithm", "dcj",
                     "-k", "8", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "set containment join" in out
        assert "α(h1)" in out
        assert "predicted" in out
        assert "observed" not in out
        # No result pairs: EXPLAIN does not run the join.
        assert "\t" not in out

    def test_analyze_prints_predicted_and_observed(self, set_files, capsys):
        r_path, s_path = set_files
        assert main(["join", r_path, s_path, "--algorithm", "dcj",
                     "-k", "8", "--analyze"]) == 0
        captured = capsys.readouterr()
        assert "observed" in captured.out and "err" in captured.out
        assert "phase.verify" in captured.out
        # The usual run summary still lands on stderr.
        assert "signature comparisons" in captured.err

    def test_analyze_writes_drift_jsonl(self, set_files, capsys, tmp_path):
        r_path, s_path = set_files
        drift_path = str(tmp_path / "drift.jsonl")
        assert main(["join", r_path, s_path, "--algorithm", "psj",
                     "-k", "4", "--analyze", "--drift", drift_path]) == 0
        from repro.obs.drift import read_drift_jsonl

        (record,) = read_drift_jsonl(drift_path)
        assert record.algorithm == "PSJ"
        assert "drift record appended" in capsys.readouterr().err

    def test_drift_without_analyze_is_usage_error(self, set_files, capsys):
        r_path, s_path = set_files
        assert main(["join", r_path, s_path, "--drift", "x.jsonl"]) == 2
        assert "--drift requires --analyze" in capsys.readouterr().err

    def test_metrics_to_stdout(self, set_files, capsys):
        r_path, s_path = set_files
        assert main(["join", r_path, s_path, "--algorithm", "dcj",
                     "-k", "8", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE setjoin_joins_total counter" in out
        assert "setjoin_signature_comparisons_total" in out

    def test_metrics_to_file(self, set_files, capsys, tmp_path):
        r_path, s_path = set_files
        metrics_path = str(tmp_path / "metrics.prom")
        assert main(["join", r_path, s_path, "--algorithm", "dcj",
                     "-k", "8", "--metrics", metrics_path]) == 0
        text = open(metrics_path).read()
        assert "setjoin_joins_total" in text
        captured = capsys.readouterr()
        assert "setjoin_joins_total" not in captured.out
        assert "metrics written to" in captured.err

    def test_analyze_with_metrics_exposes_drift_series(
        self, set_files, capsys, tmp_path
    ):
        r_path, s_path = set_files
        metrics_path = str(tmp_path / "metrics.prom")
        assert main(["join", r_path, s_path, "--algorithm", "dcj", "-k", "8",
                     "--analyze", "--metrics", metrics_path]) == 0
        text = open(metrics_path).read()
        assert "setjoin_drift_records_total" in text
        assert "setjoin_drift_seconds_abs_error" in text

    def test_trace_summary_without_trace_file(self, set_files, capsys):
        r_path, s_path = set_files
        assert main(["join", r_path, s_path, "--algorithm", "dcj",
                     "-k", "8", "--trace-summary"]) == 0
        err = capsys.readouterr().err
        assert "join" in err and "phase.partition" in err
        # p50/p95/p99 session latencies ride along with the summary.
        assert "p50=" in err and "p99=" in err

    def test_db_explain_renders_the_plan_tree(
        self, set_files, capsys, tmp_path
    ):
        r_path, s_path = set_files
        db_path = str(tmp_path / "cli.db")
        assert main(["db", db_path, "load", "R", r_path]) == 0
        assert main(["db", db_path, "load", "S", s_path]) == 0
        capsys.readouterr()
        assert main(["db", db_path, "explain", "R", "S"]) == 0
        out = capsys.readouterr().out
        assert "chosen:" in out
        assert "phase.partition" in out and "phase.verify" in out

    def test_serve_parser_accepts_host_and_port(self):
        from repro.cli import build_parser

        arguments = build_parser().parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "0"]
        )
        assert arguments.command == "serve"
        assert arguments.host == "0.0.0.0"
        assert arguments.port == 0
        db_arguments = build_parser().parse_args(
            ["db", "x.db", "stats", "--serve", "--port", "0"]
        )
        assert db_arguments.serve and db_arguments.port == 0

    @pytest.mark.parametrize("options", [
        ["--flight-recorder", "8", "--capture", "c.jsonl"],
        ["--workers", "4"],
        ["--slo-join", "0.5"],
        ["--trace", "t.jsonl"],
    ])
    def test_serve_rejects_service_options_without_service(
        self, monkeypatch, capsys, options
    ):
        from repro.obs.serve import MetricsServer

        def refuse(self):
            raise AssertionError("serve started a bare metrics server")

        monkeypatch.setattr(MetricsServer, "start", refuse)
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--port", "0", *options])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"{options[0]} requires --service" in err

    def test_serve_has_no_profiler_flag(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("serve accepted --profile-hz")

        monkeypatch.setattr("repro.service.QueryService", refuse)
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--service", "x.db", "--profile-hz", "1"])
        assert exit_info.value.code == 2
        assert "--profile-hz" in capsys.readouterr().err


class TestAdaptiveFlags:
    def test_recalibrate_requires_analyze_and_drift(self, set_files, capsys):
        r_path, s_path = set_files
        assert main([
            "join", r_path, s_path, "--analyze", "--recalibrate",
        ]) == 2
        assert "--recalibrate requires" in capsys.readouterr().err

    def test_recalibrate_reports_thin_history(
        self, set_files, capsys, tmp_path
    ):
        r_path, s_path = set_files
        drift = str(tmp_path / "drift.jsonl")
        assert main([
            "join", r_path, s_path, "--algorithm", "dcj", "--partitions", "4",
            "--analyze", "--drift", drift, "--recalibrate",
        ]) == 0
        err = capsys.readouterr().err
        assert "# recalibration: history too thin" in err

    def test_model_store_survives_across_invocations(
        self, set_files, capsys, tmp_path
    ):
        from repro.analysis.timemodel import TimeModel
        from repro.obs.adaptive import ModelStore

        r_path, s_path = set_files
        store_path = str(tmp_path / "models.json")
        store = ModelStore(store_path)
        store.add_version(
            TimeModel(1e-6, 2e-6, 0.7), records=24, window=200,
            mean_abs_error_before=0.5, mean_abs_error_after=0.01,
            wall=lambda: 1.0,
        )
        assert main([
            "join", r_path, s_path, "--algorithm", "dcj", "--partitions", "4",
            "--model-store", store_path,
        ]) == 0
        err = capsys.readouterr().err
        assert "planning with recalibrated model v1" in err

    def test_explain_with_drift_history_is_usage_error(
        self, set_files, capsys, tmp_path
    ):
        """Drift reaches EXPLAIN only through a refitted model, so a
        history on an EXPLAIN alone would do nothing: refuse it."""
        r_path, s_path = set_files
        drift = str(tmp_path / "drift.jsonl")
        assert main([
            "join", r_path, s_path, "--algorithm", "dcj", "--partitions", "4",
            "--explain", "--drift", drift,
        ]) == 2
        assert "--drift requires --analyze" in capsys.readouterr().err

    def test_explain_rejects_algorithms_no_join_runs(self, set_files):
        from repro.errors import ConfigurationError
        from repro.obs.explain import explain_join

        lhs = load_relation_file(set_files[0])
        rhs = load_relation_file(set_files[1])
        for algorithm in ("SHJ", "HYBRID"):
            with pytest.raises(ConfigurationError, match="algorithm must be"):
                explain_join(lhs, rhs, algorithm=algorithm)

    def test_join_parser_accepts_adaptive_flags(self):
        from repro.cli import build_parser

        arguments = build_parser().parse_args([
            "join", "r.txt", "s.txt", "--analyze", "--drift", "d.jsonl",
            "--recalibrate", "--model-store", "m.json",
        ])
        assert arguments.recalibrate
        assert arguments.model_store == "m.json"

    def test_serve_parser_accepts_bind_alias_and_token(self):
        from repro.cli import build_parser

        arguments = build_parser().parse_args(
            ["serve", "--bind", "0.0.0.0", "--token", "s3cret"]
        )
        assert arguments.host == "0.0.0.0"
        assert arguments.token == "s3cret"
