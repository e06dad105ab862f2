#!/usr/bin/env python3
"""Compare result documents written by ``bench/run.py``.

    python3 bench/compare.py A.json B.json
    python3 bench/compare.py --pairs A1.json B1.json A2.json B2.json ...

For every (workload, end-to-end metric) prints both sides' median and
quartiles, the ratio B/A with its base, and a verdict from the bounds in
``BENCHMARK.json``:

* ``unresolved`` — A's own spread (quartile distance over median) is wider
  than the bound, unless every B run reads better than every A run;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — with two files, better by more than the bound; with
  ``--pairs`` (ten or more A/B pairs, run alternately), B wins at least
  nine tenths of the pairs, ties counting for neither, and the medians
  differ by more than A's quartile distance;
* ``unchanged`` — otherwise.

With two files the spread is that of the timed samples inside A's run, for
the metrics that are medians of samples.  Exits 1 on any ``worse`` or on a
higher ``failed_share``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

if not __package__:  # run as a script: import ``bench`` from the root
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from bench.catalog import END_TO_END  # noqa: E402

MIN_PAIRS = 10


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, __, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def _within_run_samples(run: dict, metric: str) -> list[float]:
    """The timed samples a single run's metric is the median of."""
    joins = run.get("latencies_s", {}).get("join", [])
    if metric == "join_wall_s":
        return joins
    if metric == "join_tuples_per_s":
        tuples = run["inputs"]["r_size"] + run["inputs"]["s_size"]
        return [tuples / seconds for seconds in joins]
    return []


def _verdict(spec, a_values, b_values, a_spread, wins=None) -> str:
    lower = spec["better"] == "lower"
    a_mid, b_mid = statistics.median(a_values), statistics.median(b_values)
    worse_by = (b_mid - a_mid) / a_mid * (1 if lower else -1)
    if a_spread / a_mid > spec["bound"]:
        separated = (max(b_values) < min(a_values) if lower
                     else min(b_values) > max(a_values))
        if not separated:
            return "unresolved"
    if worse_by > spec["bound"]:
        return "worse"
    if wins is None:
        return "better" if -worse_by > spec["bound"] else "unchanged"
    won, decided = wins
    if decided and won >= 0.9 * decided and abs(b_mid - a_mid) > a_spread:
        return "better"
    return "unchanged"


def compare_runs(a_docs: list[dict], b_docs: list[dict]) -> list[dict]:
    """One row per (workload, end-to-end metric)."""
    paired = len(a_docs) > 1
    rows = []
    for workload in a_docs[0]["workloads"]:
        a_runs = [doc["workloads"][workload] for doc in a_docs]
        b_runs = [doc["workloads"][workload] for doc in b_docs]
        for metric, spec in END_TO_END.items():
            a_values = [r["end_to_end"][metric]["value"] for r in a_runs]
            b_values = [r["end_to_end"][metric]["value"] for r in b_runs]
            spread_of = a_values if paired else (
                _within_run_samples(a_runs[0], metric) or a_values)
            low, __, high = _quartiles(spread_of)
            wins = None
            if paired:
                lower = spec["better"] == "lower"
                won = sum((b < a) if lower else (b > a)
                          for a, b in zip(a_values, b_values))
                ties = sum(a == b for a, b in zip(a_values, b_values))
                wins = (won, len(a_values) - ties)
            rows.append({
                "workload": workload, "metric": metric,
                "unit": spec["unit"], "bound": spec["bound"],
                "a": _quartiles(a_values), "b": _quartiles(b_values),
                "ratio": statistics.median(b_values)
                / statistics.median(a_values),
                "verdict": _verdict(spec, a_values, b_values, high - low, wins),
            })
        a_failed = sum(r["failed"] for r in a_runs) / sum(
            r["attempted"] for r in a_runs)
        b_failed = sum(r["failed"] for r in b_runs) / sum(
            r["attempted"] for r in b_runs)
        rows.append({
            "workload": workload, "metric": "failed_share", "unit": "ratio",
            "bound": 0.0, "a": (a_failed,) * 3, "b": (b_failed,) * 3,
            "ratio": float("nan"),
            "verdict": "worse" if b_failed > a_failed else "unchanged",
        })
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':14s} {'metric':18s} {'A q1/median/q3':>34s} "
             f"{'B q1/median/q3':>34s} {'B/A':>7s} {'bound':>6s}  verdict"]
    for row in rows:
        a = "/".join(f"{value:.5g}" for value in row["a"])
        b = "/".join(f"{value:.5g}" for value in row["b"])
        lines.append(
            f"{row['workload']:14s} {row['metric']:18s} {a:>34s} {b:>34s} "
            f"{row['ratio']:7.3f} {row['bound']:6.2f}  {row['verdict']} "
            f"[{row['unit']}; base A median {row['a'][1]:.5g}]")
    return "\n".join(lines)


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "--pairs":
        files = argv[1:]
        if len(files) < 2 * MIN_PAIRS or len(files) % 2:
            sys.exit(f"--pairs needs at least {MIN_PAIRS} A/B pairs, "
                     "given alternately: A1 B1 A2 B2 ...")
        rows = compare_runs([_load(p) for p in files[0::2]],
                            [_load(p) for p in files[1::2]])
    elif len(argv) == 2:
        rows = compare_runs([_load(argv[0])], [_load(argv[1])])
    else:
        sys.exit(__doc__)
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
