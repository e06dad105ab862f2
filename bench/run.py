#!/usr/bin/env python3
"""The benchmark of record.

One workload, as ``BENCHMARK.json``'s driver calls it — the last line of
standard output is the result object:

    python3 bench/run.py --workload case_study --seed 11 --seconds 15 --trace 0

Everything, as a person runs it — five workloads, each in a fresh
subprocess, an untraced pass for the end-to-end metrics and then a traced
pass for the per-layer ones, written as one result document:

    python3 bench/run.py [--seed N] [--out DIR] [--smoke | --selfcheck]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The script's own directory leads sys.path; swap it for the repository
# root so ``bench`` imports as a package and ``bench/trace.py`` cannot
# shadow the standard library's ``trace``.
sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))

SCHEMA = 1
DEFAULT_SEED = 11
FULL_RUN_SECONDS = 20
SMOKE_SCALE = 0.05


def set_up(workload, seed: int, scale: float, tmp: str, repeats: int):
    """Build the workload's state ``repeats`` times; keep the last."""
    times = []
    state = None
    for __ in range(repeats):
        if state is not None:
            state.close()
            state = None  # free the inputs before generating them again
        started = time.perf_counter()
        state = workload.build(seed, scale, tmp)
        times.append(time.perf_counter() - started)
    return state, times


def measure(workload, state, seconds: float, min_repeats: int) -> list[list]:
    """Whole repeats until ``seconds`` have been measured, and never fewer
    than ``min_repeats``; one list of operations per repeat."""
    repeats = []
    started = time.perf_counter()
    while (len(repeats) < min_repeats
           or time.perf_counter() - started < seconds):
        repeats.append(workload.repeat(state))
    return repeats


def end_to_end(state, repeats, setup_times) -> tuple[dict, dict]:
    """The five end-to-end metrics, and the sample count behind each.

    Timings are those of the *fastest* repeat: the sandbox's noise is
    one-sided bursts of stolen CPU that cover several repeats, and the
    program is deterministic with no slow path for a minimum to hide
    (measurements in README.md, "Why the fastest repeat").
    """
    joins = [op.seconds for ops in repeats for op in ops if op.kind == "join"]
    join_wall = min(joins)
    values = {
        "join_wall_s": join_wall,
        "join_tuples_per_s": state.tuples / join_wall,
        "queries_per_s": max(
            len(ops) / sum(op.seconds for op in ops) for ops in repeats),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }
    samples = {
        "join_wall_s": len(joins), "join_tuples_per_s": len(joins),
        "queries_per_s": len(repeats), "peak_rss_mb": 1,
        "setup_s": len(setup_times),
    }
    return values, samples


def run_workload(args) -> int:
    """Driver mode: one workload in this process."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit("bench: src/repro not found next to bench/ — "
                 "nothing to measure")
    from bench.catalog import END_TO_END, PER_LAYER
    from bench.trace import Recorder
    from bench.workloads import all_workloads

    workloads = all_workloads()
    if args.workload not in workloads:
        sys.exit(f"bench: no workload {args.workload!r}; "
                 f"BENCHMARK.json names {sorted(workloads)}")
    workload = workloads[args.workload]
    out_dir = args.out or os.path.join(HERE, "out")
    tmp = os.path.join(out_dir, "tmp", f"{workload.name}-{os.getpid()}")
    os.makedirs(tmp)
    detail = {"why": workload.why}
    try:
        state, setup_times = set_up(
            workload, args.seed, args.scale, tmp,
            1 if args.trace else workload.setup_repeats)
        try:
            if args.trace:
                recorder = Recorder(workload.name)
                values, correct = workload.trace(
                    state, recorder,
                    1 if args.smoke else workload.traced_repeats)
                trace_file = os.path.join(
                    out_dir, f"trace-{workload.name}-seed{args.seed}.jsonl")
                recorder.write_jsonl(trace_file)
                attempted, failed = len(recorder.spans), 0 if correct else 1
                catalog = PER_LAYER
                detail.update(trace_file=trace_file, spans=len(recorder.spans))
                samples = {}
            else:
                repeats = measure(
                    workload, state, args.seconds,
                    1 if args.smoke else workload.min_repeats)
                values, samples = end_to_end(state, repeats, setup_times)
                ops = [op for repeat in repeats for op in repeat]
                attempted = len(ops)
                failed = sum(not op.ok for op in ops)
                correct = failed == 0
                catalog = END_TO_END
                detail["latencies_s"] = {}
                for op in ops:
                    detail["latencies_s"].setdefault(op.kind, []).append(
                        op.seconds)
            detail["info"] = state.info
        finally:
            state.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        for child in multiprocessing.active_children():
            child.join()

    metrics = {
        name: {"value": values[name], "unit": catalog[name]["unit"]}
        for name in catalog
    }
    for name, metric in metrics.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"{workload.name:14s} {name:42s} "
              f"{metric['value']:>16.6g} {metric['unit']}{count}")
    print(f"{workload.name:14s} pair digest {state.info['pair_digest']}  "
          f"attempted {attempted}  failed {failed}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.detail:
        detail.update(result, samples=samples)
        with open(args.detail, "w") as handle:
            json.dump(detail, handle, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# Full mode: every workload, both passes, one result document
# ----------------------------------------------------------------------

def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _child(name, args, trace: int, out_dir: str) -> dict:
    """Run one workload in a fresh interpreter; return its detail file."""
    detail = os.path.join(out_dir, f"detail-{name}-trace{trace}.json")
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--out", out_dir, "--detail", detail,
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    # Everything but the driver's result object, which the detail file has.
    print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
    if done.returncode != 0:
        sys.exit(f"bench: workload {name} (trace {trace}) exited "
                 f"{done.returncode}")
    with open(detail) as handle:
        loaded = json.load(handle)
    os.remove(detail)
    return loaded


def run_pass(args, trace: int, out_dir: str) -> dict:
    from bench.catalog import WORKLOADS

    return {name: _child(name, args, trace, out_dir) for name in WORKLOADS}


def document(args, untraced: dict, traced: dict | None) -> dict:
    import numpy

    workloads = {}
    for name, run in untraced.items():
        entry = {
            "why": run["why"],
            "inputs": {key: run["info"][key] for key in ("r_size", "s_size")},
            "end_to_end": run["metrics"],
            "samples": run["samples"],
            "warmups_discarded": run["info"]["warmups_discarded"],
            "attempted": run["attempted"],
            "failed": run["failed"],
            "failed_share": run["failed"] / run["attempted"],
            "correct": run["correct"],
            "latencies_s": run["latencies_s"],
            "info": run["info"],
        }
        if traced is not None:
            layers = traced[name]
            entry["per_layer"] = layers["metrics"]
            entry["trace_file"] = layers["trace_file"]
            entry["traced_correct"] = layers["correct"]
            entry["info"] = {**layers["info"], **run["info"]}
        workloads[name] = entry
    return {
        "schema": SCHEMA,
        "seed": args.seed,
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "run_seconds": args.seconds,
        "scale": args.scale,
        "workloads": workloads,
    }


def green(doc: dict) -> bool:
    return all(
        w["correct"] and w.get("traced_correct", True) and w["failed"] == 0
        for w in doc["workloads"].values()
    )


def run_all(args) -> int:
    out_dir = args.out or os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    if args.smoke:
        args.seconds = 0
    elif args.seconds is None:
        args.seconds = FULL_RUN_SECONDS

    if args.selfcheck:
        from bench.compare import compare_runs, render

        first = document(args, run_pass(args, 0, out_dir), None)
        second = document(args, run_pass(args, 0, out_dir), None)
        rows = compare_runs([first], [second])
        print(render(rows))
        # Two runs of one commit have no better side: a move beyond the
        # bound in either direction means the metric does not repeat.
        moved = [row for row in rows if row["metric"] != "failed_share"
                 and abs(row["ratio"] - 1) > row["bound"]]
        exact = all(
            first["workloads"][name]["info"]["pair_digest"]
            == second["workloads"][name]["info"]["pair_digest"]
            for name in first["workloads"]
        )
        ok = not moved and exact and green(first) and green(second)
        print("selfcheck:", "ok" if ok else "FAILED")
        return 0 if ok else 1

    doc = document(args, run_pass(args, 0, out_dir),
                   run_pass(args, 1, out_dir))
    path = os.path.join(out_dir, f"result-seed{args.seed}.json")
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
    print(f"result document: {path}")
    return 0 if green(doc) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in "
                        "this process, and end with the result object")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of each timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="where results, traces and temporary "
                        "files go (default bench/out)")
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads at 1/20 size, one repeat")
    parser.add_argument("--selfcheck", action="store_true",
                        help="untraced pass twice; fail if they disagree")
    # What the full mode hands its subprocesses.
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.scale = SMOKE_SCALE if args.smoke else 1.0
    if args.workload is None:
        return run_all(args)
    if args.seconds is None:
        parser.error("--workload needs --seconds")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
