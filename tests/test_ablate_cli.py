"""``python -m repro.experiments ablation-components``: artifacts and the
exit status that gates CI."""

import pytest

from repro.experiments import ablations
from repro.experiments.__main__ import main


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ablation-out")
    # The experiment's registered default scale, where its checks are
    # specified: at 0.25 the tight pool holds the whole working set.
    code = main(["ablation-components", "--scale", "0.5", "--out", str(out)])
    return {"code": code, "out": out}


def test_full_run_succeeds_and_writes_artifacts(full_run):
    assert full_run["code"] == 0
    assert (full_run["out"] / "ablation-components.txt").exists()
    lines = (full_run["out"] / "ablation-components.tsv").read_text(
        ).splitlines()
    header = lines[0].split("\t")
    assert header[:3] == ["rank", "component", "variant"]
    assert {"importance_det", "answer_ok", "t_total_s"} <= set(header)
    rows = [dict(zip(header, line.split("\t"))) for line in lines[1:]]
    assert rows[0]["component"] == "baseline"
    assert len(rows) == 1 + sum(
        len(component.variants) for component in ablations.COMPONENTS)
    assert all(row["answer_ok"] == "yes" for row in rows)


def test_check_against_tampered_report_fails(monkeypatch, capsys):
    """A variant whose pairs digest moves fails the invariance check, and
    the command exits 1 naming it."""
    real = ablations._run_suite

    def tampered(knobs, scale, seed):
        outcome = real(knobs, scale, seed)
        if not knobs["durable"]:
            outcome["pairs_digest"] = "0" * 16
        return outcome

    monkeypatch.setattr(ablations, "_run_suite", tampered)
    assert main(["ablation-components", "--scale", "0.25"]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] every variant keeps the baseline pairs digest" in (
        captured.out)
    assert ("ablation-components: every variant keeps the baseline pairs "
            "digest") in captured.err
