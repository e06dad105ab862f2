"""Names the benchmark uses, and what each layer metric is expected to move.

``BENCHMARK.json`` at the repository root is the one list of workloads and
metrics (names, units, direction, regression bounds); this module loads it
and adds the table the JSON has no key for: which end-to-end metric, on
which workload, each per-layer metric should move.  On every pairing not
listed the prediction is *no change*.
"""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

ONE_SHOT = ("case_study", "compare_heavy", "dense_verify")


def _on(metric, *workloads):
    return [(metric, workload) for workload in workloads]


_SERVED = _on("queries_per_s", "served_mix")
_SERVED_JOIN = _on("join_wall_s", "served_mix") + _SERVED

#: prefix of a per-layer metric name → the (end-to-end metric, workload)
#: pairs it should move; the longest matching prefix wins.
_MOVES = {
    "data.generate_s": _on("setup_s", *WORKLOADS),
    # θ=50/100 makes signing and DCJ routing expensive only on case_study.
    "core.signatures.": _on("join_wall_s", "case_study"),
    "core.partitioning.": _on("join_wall_s", "case_study"),
    # Through the plan chosen, not planning time; on served_mix only on
    # plan-cache misses.
    "core.optimizer.": _on("join_wall_s", "case_study", "served_mix"),
    "core.operator.": _on("join_wall_s", *WORKLOADS),
    "core.operator.compare_s": _on("join_wall_s", "compare_heavy", "case_study"),
    "core.operator.signature_comparisons":
        _on("join_wall_s", "compare_heavy", "case_study"),
    "core.operator.comparisons_per_s":
        _on("join_wall_s", "compare_heavy", "case_study"),
    "core.operator.candidates": _on("join_wall_s", "dense_verify"),
    "core.operator.filter_precision": _on("join_wall_s", "dense_verify"),
    "storage.relation_store.bulk_load_s":
        _on("join_wall_s", *ONE_SHOT, "fanout") + _SERVED,
    "storage.relation_store.scan_s": _on("join_wall_s", *WORKLOADS) + _SERVED,
    "storage.relation_store.fetch": _on("join_wall_s", "dense_verify"),
    "storage.partition_store.":
        _on("join_wall_s", "case_study", "compare_heavy"),
    # Explain, not gate: counters behind the phases above.
    "storage.buffer.": _on("join_wall_s", "case_study", "dense_verify"),
    "storage.pager.": _on("join_wall_s", "case_study", "dense_verify"),
    "storage.wal.": _SERVED + _on("setup_s", "served_mix"),
    # Space trades against read and write cost; reported for itself.
    "storage.stored_bytes_per_user_byte": [],
    "database.": _SERVED_JOIN,
    "parallel.": _on("join_wall_s", "fanout", "served_mix"),
    "dist.": _on("queries_per_s", "fanout") + _on("setup_s", "fanout"),
    "service.": _SERVED,
    "service.join_": _SERVED_JOIN,
    "service.plan_cache_hit_rate": _SERVED_JOIN,
    # One-shot joins run untraced, so only the served path pays.
    "obs.": _SERVED_JOIN,
    "bench.": [],
}


def moves(name: str) -> list[tuple[str, str]]:
    """The (end-to-end metric, workload) pairs ``name`` should move."""
    prefix = max((p for p in _MOVES if name.startswith(p)), key=len)
    return _MOVES[prefix]
