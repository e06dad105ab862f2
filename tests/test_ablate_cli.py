"""The ``repro ablate`` CLI: listing, artifacts, history, tripwire exit codes."""

import json

import pytest

from repro.cli import main

SCALE = 0.1


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One full-matrix CLI run shared by the artifact/check tests."""
    out = tmp_path_factory.mktemp("ablation-out")
    history = out / "history.jsonl"
    code = main([
        "ablate", "--scale", str(SCALE), "--repeats", "1",
        "--out", str(out), "--history", str(history),
    ])
    return {"code": code, "out": out, "history": history}


def test_list_prints_registry(capsys):
    assert main(["ablate", "--list"]) == 0
    captured = capsys.readouterr().out
    for name in ("checksums", "wal", "alternation", "plan-cache"):
        assert name in captured
    assert "answer-exact" in captured
    assert "answer-affecting" in captured


def test_full_run_succeeds_and_writes_artifacts(full_run):
    assert full_run["code"] == 0
    tsv = full_run["out"] / "ablation_importance.tsv"
    jsonl = full_run["out"] / "ablation_importance.jsonl"
    assert tsv.exists() and jsonl.exists()
    lines = tsv.read_text().splitlines()
    comments = [line for line in lines if line.startswith("# ")]
    assert any("baseline" in line for line in comments)
    header = next(line for line in lines if not line.startswith("# "))
    assert header.split("\t")[0] == "rank"
    data = [line for line in lines
            if line and not line.startswith(("# ", "rank\t"))]
    assert len(data) >= 8                         # >= 8 ranked components


def test_jsonl_has_meta_line_then_run_rows(full_run):
    rows = [json.loads(line) for line in
            (full_run["out"] / "ablation_importance.jsonl")
            .read_text().splitlines()]
    assert rows[0]["reconciliation"]["exact"]
    assert rows[0]["scale"] == SCALE
    runs = rows[1:]
    assert runs[0]["name"] == "baseline"
    assert all("run_id" in row and "fingerprint" in row for row in runs)


def test_history_row_appended(full_run):
    records = [json.loads(line) for line in
               full_run["history"].read_text().splitlines()]
    assert len(records) == 1
    record = records[0]
    assert record["schema"] == "ablation-1"
    assert "baseline" in record["runs"]
    assert record["runs"]["baseline"]["x"] > 0


def test_check_against_own_report_passes(full_run, capsys):
    code = main([
        "ablate", "--scale", str(SCALE), "--repeats", "1", "--out", "",
        "--check", str(full_run["out"] / "ablation_importance.tsv"),
    ])
    captured = capsys.readouterr().out
    assert code == 0, captured
    assert "TRIPWIRE" not in captured


def test_check_against_tampered_report_fails(full_run, tmp_path, capsys):
    committed = (full_run["out"] / "ablation_importance.tsv").read_text()
    tampered_lines = []
    for line in committed.splitlines():
        fields = line.split("\t")
        if len(fields) > 5 and fields[1] == "checksums":
            fields[5] = "0.9000"      # importance_det a fresh run can't reach
            line = "\t".join(fields)
        tampered_lines.append(line)
    tampered = tmp_path / "tampered.tsv"
    tampered.write_text("\n".join(tampered_lines) + "\n")
    code = main([
        "ablate", "--scale", str(SCALE), "--repeats", "1", "--out", "",
        "--check", str(tampered),
    ])
    captured = capsys.readouterr().out
    assert code == 1
    assert "importance collapsed" in captured


def test_single_component_run_writes_partial_artifacts(tmp_path, capsys):
    code = main([
        "ablate", "--component", "wal", "--scale", str(SCALE),
        "--repeats", "1", "--out", str(tmp_path), "--json",
    ])
    assert code == 0
    assert (tmp_path / "ablation_importance_partial.tsv").exists()
    assert not (tmp_path / "ablation_importance.tsv").exists()
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"] == []
    assert payload["reconciliation"]["exact"]
    components = {c["component"] for c in payload["report"]["components"]}
    assert components == {"wal"}


def test_single_component_check_skips_missing_components(full_run, capsys):
    """A reduced matrix checked against the full committed report must not
    fail just because the other components were not re-run."""
    code = main([
        "ablate", "--component", "wal", "--scale", str(SCALE),
        "--repeats", "1", "--out", "",
        "--check", str(full_run["out"] / "ablation_importance.tsv"),
    ])
    captured = capsys.readouterr().out
    assert code == 0, captured
