"""Smoke test of the benchmark itself.

Not collected by the tier-1 suite (``testpaths = ["tests"]``); run it with

    python -m pytest bench/test_smoke.py

It drives ``run.py --smoke`` — all five workloads at 1/20 size, one timed
repeat, both passes — and checks the result document against
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from bench import catalog  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
SMOKE_BUDGET_S = 30


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench-smoke")
    started = time.monotonic()
    subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--smoke",
         "--out", str(out)],
        check=True, timeout=4 * SMOKE_BUDGET_S, stdout=subprocess.DEVNULL,
    )
    elapsed = time.monotonic() - started
    with open(out / "result-seed11.json") as handle:
        return json.load(handle), elapsed


def test_smoke_fits_its_budget(smoke):
    assert smoke[1] < SMOKE_BUDGET_S


def test_every_workload_and_metric_in_benchmark_json_is_emitted(smoke):
    doc = smoke[0]
    assert doc["schema"] == 1
    assert set(doc["workloads"]) == set(catalog.WORKLOADS)
    for name, run in doc["workloads"].items():
        for section, named in (("end_to_end", catalog.END_TO_END),
                               ("per_layer", catalog.PER_LAYER)):
            assert set(run[section]) == set(named), (name, section)
            for metric, reading in run[section].items():
                assert NAME.match(metric), metric
                assert UNIT.match(reading["unit"]), (metric, reading)
                assert reading["unit"] == named[metric]["unit"]
                assert isinstance(reading["value"], (int, float))
        assert all(run["end_to_end"][m]["value"] > 0
                   for m in catalog.END_TO_END), name


def test_every_layer_metric_moves_something_that_exists():
    for name in catalog.PER_LAYER:
        for metric, workload in catalog.moves(name):
            assert metric in catalog.END_TO_END, (name, metric)
            assert workload in catalog.WORKLOADS, (name, workload)


def test_operator_shares_sum_to_the_traced_wall(smoke):
    """Plan + load + the operator's run cover the unrolled join, and the
    three program-reported phases plus ``run_other`` cover the run."""
    for name, run in smoke[0]["workloads"].items():
        with open(run["trace_file"]) as handle:
            spans = [json.loads(line) for line in handle]
        joins = [s for s in spans if s["name"] == "core.api.containment_join"]
        assert joins or name == "served_mix"
        for span in joins:
            assert span["self"] <= 0.05 * (span["end"] - span["start"]), span
        layers = run["per_layer"]
        shares = sum(layers[f"core.operator.{part}"]["value"] for part in (
            "partition_phase_s", "join_phase_s", "verify_phase_s",
            "run_other_s"))
        runs = [s["end"] - s["start"] for s in spans
                if s["name"] in ("core.operator.run", "database.join")]
        assert min(runs) * 0.95 <= shares <= max(runs) * 1.05, name


def test_nothing_failed(smoke):
    for name, run in smoke[0]["workloads"].items():
        assert run["correct"] and run["traced_correct"], name
        assert run["failed_share"] == 0, name
