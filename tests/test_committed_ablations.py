"""The committed ablation tables are what the code measures today.

Each experiment below is rerun at its registered defaults and its table
compared with ``results/<id>.tsv`` cell for cell, every column but the
wall-time ones (``t_*``): page counts, signature counts, digests and
ranks that drift from the committed table fail here instead of going
stale.  To refresh a table on purpose, rerun
``python -m repro.experiments <id> --out results`` and say why in the
change's notes.
"""

import os

import pytest

from repro.experiments import get_experiment

RESULTS = os.path.join(os.path.dirname(__file__), os.pardir, "results")


def _cells(tsv: str) -> "list[list[str]]":
    header, *rows = (line.split("\t") for line in tsv.splitlines())
    kept = [at for at, column in enumerate(header)
            if not column.startswith("t_")]
    return [[row[at] for at in kept] for row in (header, *rows)]


@pytest.mark.parametrize(
    "experiment_id",
    ["ablation-buffer", "ablation-options", "ablation-components"],
)
def test_committed_table_matches_a_rerun(experiment_id):
    with open(os.path.join(RESULTS, f"{experiment_id}.tsv")) as handle:
        committed = _cells(handle.read())
    assert _cells(get_experiment(experiment_id)().to_tsv()) == committed
