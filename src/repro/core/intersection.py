"""Set intersection (overlap) joins — the paper's other future-work item.

Section 7: "Developing efficient algorithms for other set join operators,
for instance the intersection join, is another challenging and mostly
unexplored research direction."  This module provides that operator:

    R ⋈∩ S = { (r, s) : |r ∩ s| >= t }           (t >= 1)

Two implementations:

* :func:`intersection_join_nested_loop` — the quadratic baseline.
* :func:`intersection_join` — element partitioning in the PSJ style, but
  replicating *both* sides on every element: if ``|r ∩ s| >= t >= 1``
  they share at least one element and meet in its partition.  Within a
  partition, a signature pre-filter (``sig(r) & sig(s) != 0`` is
  necessary for a non-empty intersection) cuts the exact-verification
  work.  For ``t > 1`` the filter stays sound because ``t`` shared
  elements always set at least one shared bit.

Unlike containment, intersection has no subset-side asymmetry to exploit,
so replication is ``θ``-fold on both relations — which is exactly why the
paper calls the operator challenging.
"""

from __future__ import annotations

import time
from collections import defaultdict
from functools import partial

from ..errors import ConfigurationError
from .metrics import JoinMetrics, PhaseMetrics
from .partitioning import assign_batch
from .sets import Relation
from .signatures import DEFAULT_SIGNATURE_BITS, signature_of

__all__ = [
    "intersection_join",
    "intersection_join_nested_loop",
    "run_disk_intersection_join",
]


def _check_arguments(threshold: int, num_partitions: int = 1) -> None:
    if threshold < 1:
        raise ConfigurationError(
            f"overlap threshold must be >= 1, got {threshold}"
        )
    if num_partitions < 1:
        raise ConfigurationError(
            f"number of partitions must be >= 1, got {num_partitions}"
        )


def intersection_join_nested_loop(
    lhs: Relation, rhs: Relation, threshold: int = 1
) -> tuple[set[tuple[int, int]], JoinMetrics]:
    """Quadratic reference: test |r ∩ s| >= t for every pair."""
    _check_arguments(threshold)
    metrics = JoinMetrics(algorithm="IntersectNL", num_partitions=1,
                          r_size=len(lhs), s_size=len(rhs))
    started = time.perf_counter()
    result: set[tuple[int, int]] = set()
    for r in lhs:
        for s in rhs:
            metrics.set_comparisons += 1
            if len(r.elements & s.elements) >= threshold:
                result.add((r.tid, s.tid))
    metrics.joining.seconds = time.perf_counter() - started
    metrics.result_size = len(result)
    return result, metrics


def intersection_join(
    lhs: Relation,
    rhs: Relation,
    threshold: int = 1,
    num_partitions: int = 64,
    signature_bits: int = DEFAULT_SIGNATURE_BITS,
) -> tuple[set[tuple[int, int]], JoinMetrics]:
    """Partitioned intersection join with a signature pre-filter.

    Each tuple of both relations is replicated to the partition of every
    one of its elements (``e mod k``), candidate pairs are generated
    within partitions after a shared-bit signature check, and candidates
    are verified exactly.  Distinct-partition deduplication keeps each
    pair verified once.
    """
    _check_arguments(threshold, num_partitions)
    metrics = JoinMetrics(algorithm="IntersectPSJ",
                          num_partitions=num_partitions,
                          r_size=len(lhs), s_size=len(rhs),
                          signature_bits=signature_bits)

    started = time.perf_counter()
    r_parts: dict[int, list] = defaultdict(list)
    s_parts: dict[int, list] = defaultdict(list)
    r_signatures: dict[int, int] = {}
    s_signatures: dict[int, int] = {}
    for relation, parts, signatures in (
        (lhs, r_parts, r_signatures),
        (rhs, s_parts, s_signatures),
    ):
        for row in relation:
            signatures[row.tid] = signature_of(row.elements, signature_bits)
            for index in {element % num_partitions for element in row.elements}:
                parts[index].append(row.tid)
    metrics.replicated_signatures = sum(map(len, r_parts.values())) + sum(
        map(len, s_parts.values())
    )
    metrics.partitioning.seconds = time.perf_counter() - started

    started = time.perf_counter()
    seen: set[tuple[int, int]] = set()
    for index, r_bucket in r_parts.items():
        s_bucket = s_parts.get(index)
        if not s_bucket:
            continue
        for r_tid in r_bucket:
            r_sig = r_signatures[r_tid]
            for s_tid in s_bucket:
                metrics.signature_comparisons += 1
                if r_sig & s_signatures[s_tid] == 0:
                    continue
                pair = (r_tid, s_tid)
                if pair not in seen:
                    seen.add(pair)
    metrics.candidates = len(seen)
    metrics.joining.seconds = time.perf_counter() - started

    started = time.perf_counter()
    result: set[tuple[int, int]] = set()
    for r_tid, s_tid in sorted(seen):
        metrics.set_comparisons += 1
        if len(lhs[r_tid].elements & rhs[s_tid].elements) >= threshold:
            result.add((r_tid, s_tid))
        else:
            metrics.false_positives += 1
    metrics.verification.seconds = time.perf_counter() - started
    metrics.result_size = len(result)
    return result, metrics


def run_disk_intersection_join(
    lhs: Relation,
    rhs: Relation,
    threshold: int = 1,
    num_partitions: int = 64,
    signature_bits: int = DEFAULT_SIGNATURE_BITS,
    buffer_pages: int = 512,
    path: str | None = None,
) -> tuple[set[tuple[int, int]], JoinMetrics]:
    """Disk-based R ⋈∩ S on the same testbed substrate as containment.

    Reuses the containment operator's machinery — stored relations,
    portion-page partition stores, batched scans, candidate verification —
    with element partitioning on both sides and a shared-bit signature
    filter.  Demonstrates that the paper's testbed architecture carries
    over to the §7 future-work operator unchanged.
    """
    _check_arguments(threshold, num_partitions)
    from ..storage.partition_store import PartitionStore
    from .operator import Testbed, partition_relation, verify_pairs

    with Testbed(path=path, buffer_pages=buffer_pages) as testbed:
        testbed.load(lhs, rhs)
        metrics = JoinMetrics(algorithm="IntersectPSJ-disk",
                              num_partitions=num_partitions,
                              r_size=len(lhs), s_size=len(rhs),
                              signature_bits=signature_bits)

        def assign(elements):
            # Both sides replicate on every element — the symmetric analogue
            # of PSJ's S-side rule: overlapping sets share an element.
            return sorted({element % num_partitions for element in elements})

        started = time.perf_counter()
        before = testbed.disk.stats.snapshot()
        stores = []
        for relation_store in (testbed.relation_r, testbed.relation_s):
            store = PartitionStore(
                testbed.pool, (signature_bits + 7) // 8, num_partitions
            )
            partition_relation(
                relation_store, partial(assign_batch, assign), store, signature_bits
            )
            stores.append(store)
        parts_r, parts_s = stores
        testbed.pool.flush_all()  # partition data reaches disk, as in the
        # containment operator's partition phase
        metrics.replicated_signatures = (
            parts_r.total_entries + parts_s.total_entries
        )
        metrics.partitioning = PhaseMetrics.from_io_delta(
            time.perf_counter() - started,
            testbed.disk.stats.delta(before),
        )

        started = time.perf_counter()
        before = testbed.disk.stats.snapshot()
        seen: set[tuple[int, int]] = set()
        for partition in range(num_partitions):
            if not parts_r.partition_size(partition):
                continue
            if not parts_s.partition_size(partition):
                continue
            r_entries = list(parts_r.scan_partition(partition))
            for s_batch in parts_s.scan_partition_batches(partition):
                for s_sig, s_tid in s_batch:
                    for r_sig, r_tid in r_entries:
                        metrics.signature_comparisons += 1
                        if r_sig & s_sig:
                            seen.add((r_tid, s_tid))
        metrics.candidates = len(seen)
        metrics.joining = PhaseMetrics.from_io_delta(
            time.perf_counter() - started,
            testbed.disk.stats.delta(before),
        )
        parts_r.drop()
        parts_s.drop()

        started = time.perf_counter()
        before = testbed.disk.stats.snapshot()
        result = verify_pairs(testbed, sorted(seen), threshold, metrics)
        metrics.verification = PhaseMetrics.from_io_delta(
            time.perf_counter() - started,
            testbed.disk.stats.delta(before),
        )
        metrics.result_size = len(result)
        return result, metrics
