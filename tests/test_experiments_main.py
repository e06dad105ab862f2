"""Tests for the ``python -m repro.experiments`` entry point."""

import pytest

from repro.experiments import EXPERIMENTS, ExperimentResult
from repro.experiments.__main__ import main


@pytest.fixture
def fake_experiments(monkeypatch):
    """Register two throwaway experiments: one whose run takes a scale and
    records it, one with a failing check and no scale."""
    seen = []

    def scaled(scale: float = 1.0, seed: int = 3):
        seen.append(scale)
        result = ExperimentResult("fake-scaled", f"at scale {scale:g}", ["a"])
        result.check("always holds", True)
        return result

    def failing(k: int = 4):
        result = ExperimentResult("fake-failing", "fails", ["a"])
        result.check("holds", True)
        result.check("never holds", False)
        return result

    monkeypatch.setitem(EXPERIMENTS, "fake-scaled", scaled)
    monkeypatch.setitem(EXPERIMENTS, "fake-failing", failing)
    return seen


class TestMain:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "fig4" in output
        assert "scorecard" in output

    def test_single_experiment(self, capsys):
        assert main(["fig4"]) == 0
        assert "Comparison factor" in capsys.readouterr().out

    def test_out_writes_artifacts(self, tmp_path, capsys):
        out_dir = str(tmp_path / "results")
        assert main(["fig6", "--out", out_dir]) == 0
        assert (tmp_path / "results" / "fig6.txt").exists()
        tsv = (tmp_path / "results" / "fig6.tsv").read_text()
        assert tsv.splitlines()[0].startswith("k\t")

    def test_scale_flag_passes_through(self, capsys):
        # dist's checks are invariance checks, so exit 0 does not hang on
        # wall time the way fig8's does at a toy scale.
        assert main(["dist", "--scale", "0.03"]) == 0
        assert "scale 0.03" in capsys.readouterr().out

    def test_scale_reaches_every_experiment_that_takes_one(
            self, fake_experiments, capsys):
        assert main(["fake-scaled", "--scale", "0.3"]) == 0
        assert fake_experiments == [0.3]
        assert main(["fake-scaled"]) == 0
        assert fake_experiments == [0.3, 1.0]

    def test_scale_for_an_experiment_without_one_exits_2(
            self, fake_experiments, capsys):
        assert main(["fake-failing", "--scale", "0.5"]) == 2
        assert "takes no scale" in capsys.readouterr().err
        assert main(["--all", "--scale", "0.5"]) == 2
        assert fake_experiments == []   # nothing ran

    def test_failed_check_exits_1_and_names_it(self, fake_experiments,
                                                capsys):
        assert main(["fake-failing"]) == 1
        captured = capsys.readouterr()
        assert "[FAIL] never holds" in captured.out
        assert "fake-failing: never holds" in captured.err
        assert "fake-failing: holds" not in captured.err

    def test_no_arguments_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_experiment_raises(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["fig99"])
