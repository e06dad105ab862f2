"""The deterministic-counter gate: canonical-workload snapshots and checks.

``python benchmarks/baseline.py`` runs a small canonical workload suite
(uniform workloads through the public join API — optimizer-chosen, forced
DCJ, forced PSJ, and a parallel DCJ run) and writes a ``BENCH_joins.json``
snapshot: per workload, the paper's x/y counts, page I/O, result sizes and
the wall time.

``--check BASELINE`` compares the fresh run against a stored snapshot.
The deterministic counters (signature comparisons ``x``, replicated
signatures ``y``, candidates, results, page reads/writes) must match
**exactly** — any drift means the join's accounting changed.  Wall time
is printed and stored but never checked: time is the business of the
benchmark of record (``bench/run.py``), which runs at paper scale.

Exit status: 0 on pass, 1 on regression — so it wires directly into
``make bench`` and the ``explain-regression`` CI job.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

if __package__ in (None, ""):  # executed as a script from a checkout
    _SRC = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if os.path.isdir(_SRC) and _SRC not in sys.path:
        sys.path.insert(0, _SRC)

SCHEMA_VERSION = 1

#: Snapshot keys that must match a baseline exactly (all deterministic:
#: same seeds → same partitions → same comparisons and page traffic).
COUNTER_KEYS = (
    "signature_comparisons",
    "replicated_signatures",
    "candidates",
    "results",
    "page_reads",
    "page_writes",
)


def canonical_workloads(scale: float = 1.0) -> list[dict]:
    """The fixed workload suite a snapshot covers.

    All inputs are seeded uniform workloads (deterministic across
    machines); ``scale`` shrinks the relation sizes for quick checks.
    """
    r_size = max(int(240 * scale), 20)
    s_size = max(int(360 * scale), 30)
    # Small cardinalities over a tight domain so genuine containments
    # exist — the snapshot then covers verification and result counts,
    # not just the signature-filter path.
    base = {
        "r_size": r_size,
        "s_size": s_size,
        "theta_r": 4,
        "theta_s": 24,
        "domain_size": 150,
        "seed": 11,
    }
    return [
        dict(base, name="auto_uniform", algorithm="auto", k=None),
        dict(base, name="dcj_k16", algorithm="DCJ", k=16),
        dict(base, name="psj_k16", algorithm="PSJ", k=16),
        dict(base, name="dcj_k16_workers2", algorithm="DCJ", k=16,
             workers=2, backend="serial"),
    ]


def run_workload(spec: dict, tracer=None) -> dict:
    """Run one canonical workload; returns its snapshot record."""
    from repro.core.api import containment_join
    from repro.data.workloads import uniform_workload

    lhs, rhs = uniform_workload(
        r_size=spec["r_size"],
        s_size=spec["s_size"],
        theta_r=spec["theta_r"],
        theta_s=spec["theta_s"],
        domain_size=spec["domain_size"],
        seed=spec["seed"],
    ).materialize()
    started = time.perf_counter()
    pairs, metrics = containment_join(
        lhs, rhs,
        algorithm=spec["algorithm"],
        num_partitions=spec["k"],
        workers=spec.get("workers", 1),
        backend=spec.get("backend", "serial"),
        tracer=tracer,
    )
    wall = time.perf_counter() - started
    return {
        "algorithm": metrics.algorithm,
        "k": metrics.num_partitions,
        "r_size": metrics.r_size,
        "s_size": metrics.s_size,
        "wall_seconds": wall,
        "signature_comparisons": metrics.signature_comparisons,
        "replicated_signatures": metrics.replicated_signatures,
        "candidates": metrics.candidates,
        "results": len(pairs),
        "page_reads": metrics.total_page_reads,
        "page_writes": metrics.total_page_writes,
        "comparison_factor": metrics.comparison_factor,
        "replication_factor": metrics.replication_factor,
    }


def run_suite(scale: float = 1.0, trace_path: str | None = None) -> dict:
    """Run every canonical workload; returns the snapshot document.

    ``trace_path`` additionally records a span trace of the first
    workload's join (the CI job uploads it as an inspectable artifact).
    """
    workloads: dict = {}
    for index, spec in enumerate(canonical_workloads(scale)):
        tracer = None
        if trace_path is not None and index == 0:
            from repro.obs import Tracer

            tracer = Tracer()
        workloads[spec["name"]] = run_workload(spec, tracer=tracer)
        if tracer is not None:
            from repro.obs import write_trace_jsonl

            write_trace_jsonl(tracer, trace_path)
    return {
        "schema": SCHEMA_VERSION,
        "scale": scale,
        "workloads": workloads,
    }


def write_baseline(snapshot: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_baseline(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def check_regression(current: dict, baseline: dict) -> list[str]:
    """Compare a fresh snapshot's counters against a stored baseline.

    Returns a list of human-readable failures (empty = pass).  Every
    :data:`COUNTER_KEYS` value must match exactly; wall time is ignored.
    """
    failures: list[str] = []
    if current.get("schema") != baseline.get("schema"):
        failures.append(
            f"schema mismatch: current={current.get('schema')} "
            f"baseline={baseline.get('schema')}"
        )
        return failures
    if current.get("scale") != baseline.get("scale"):
        failures.append(
            f"scale mismatch: current={current.get('scale')} "
            f"baseline={baseline.get('scale')} (rerun with matching --scale)"
        )
        return failures
    for name, expected in sorted(baseline.get("workloads", {}).items()):
        actual = current.get("workloads", {}).get(name)
        if actual is None:
            failures.append(f"{name}: missing from current run")
            continue
        for key in COUNTER_KEYS:
            if actual.get(key) != expected.get(key):
                failures.append(
                    f"{name}: {key} changed: expected {expected.get(key)}, "
                    f"got {actual.get(key)}"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the canonical join workloads and snapshot/check "
        "their deterministic counters.",
    )
    parser.add_argument(
        "--out", metavar="PATH", default="BENCH_joins.json",
        help="write the snapshot here (default BENCH_joins.json)",
    )
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="compare the fresh run against this stored snapshot; "
        "exit 1 on regression",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload size scale (default 1.0; must match the baseline)",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="also write a span trace of the first workload (JSON Lines)",
    )
    arguments = parser.parse_args(argv)

    snapshot = run_suite(scale=arguments.scale, trace_path=arguments.trace)
    write_baseline(snapshot, arguments.out)
    for name, record in sorted(snapshot["workloads"].items()):
        print(
            f"{name}: {record['algorithm']} k={record['k']} "
            f"x={record['signature_comparisons']} "
            f"y={record['replicated_signatures']} "
            f"results={record['results']} "
            f"{record['wall_seconds']:.4f}s"
        )
    print(f"snapshot written to {arguments.out}")
    if arguments.trace:
        print(f"trace written to {arguments.trace}")

    if arguments.check:
        failures = check_regression(snapshot, load_baseline(arguments.check))
        if failures:
            print(f"REGRESSION vs {arguments.check}:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print(f"no regression vs {arguments.check} (counters)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
