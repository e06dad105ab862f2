"""Microbenchmarks for the storage substrate and signature machinery.

These are not paper artifacts; they characterize the building blocks so
regressions in the substrate are visible independently of the end-to-end
figures.
"""

import random

import pytest

from repro.core.hashing import BitstringHashFamily
from repro.core.signatures import (
    bitwise_included,
    included_in_any_matrix,
    pack_signatures,
    signature_of,
)
from repro.storage.btree import BTree
from repro.storage.buffer import BufferPool
from repro.storage.pager import InMemoryDiskManager
from repro.storage.partition_store import PartitionStore


@pytest.fixture()
def sample_sets():
    rng = random.Random(5)
    return [frozenset(rng.sample(range(10_000), 50)) for __ in range(200)]


def test_bench_signature_computation(benchmark, sample_sets):
    def run():
        return [signature_of(elements, 160) for elements in sample_sets]

    signatures = benchmark(run)
    assert len(signatures) == len(sample_sets)


def test_bench_signature_comparison_python(benchmark, sample_sets):
    signatures = [signature_of(elements, 160) for elements in sample_sets]

    def run():
        hits = 0
        for sig_r in signatures:
            for sig_s in signatures:
                if bitwise_included(sig_r, sig_s):
                    hits += 1
        return hits

    hits = benchmark(run)
    assert hits >= len(signatures)  # reflexive matches at least


def test_bench_signature_comparison_numpy(benchmark, sample_sets):
    signatures = [signature_of(elements, 160) for elements in sample_sets]
    packed = pack_signatures(signatures, 160)

    def run():
        hits = 0
        for sig_r in signatures:
            hits += int(included_in_any_matrix(sig_r, packed, 160).sum())
        return hits

    hits = benchmark(run)
    assert hits >= len(signatures)


def test_bench_hash_family_evaluation(benchmark, sample_sets):
    family = BitstringHashFamily(124, num_functions=7)

    def run():
        return [family.evaluate(elements) for elements in sample_sets]

    masks = benchmark(run)
    assert all(0 <= mask < 2**7 for mask in masks)


def test_bench_btree_insert(benchmark):
    def run():
        pool = BufferPool(InMemoryDiskManager(4096), capacity=128)
        tree = BTree.create(pool)
        for value in range(2000):
            tree.insert(value.to_bytes(8, "big"), bytes(24))
        return tree

    tree = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(tree) == 2000


def test_bench_btree_scan(benchmark):
    pool = BufferPool(InMemoryDiskManager(4096), capacity=128)
    tree = BTree.create(pool)
    for value in range(2000):
        tree.insert(value.to_bytes(8, "big"), bytes(24))

    count = benchmark(lambda: sum(1 for __ in tree.items()))
    assert count == 2000


def test_bench_partition_store_append_scan(benchmark):
    def run():
        pool = BufferPool(InMemoryDiskManager(4096), capacity=128)
        store = PartitionStore(pool, signature_bytes=20, num_partitions=16)
        for value in range(5000):
            store.append(value % 16, value, value)
        store.seal()
        return sum(1 for p in range(16) for __ in store.scan_partition(p))

    total = benchmark.pedantic(run, rounds=1, iterations=1)
    assert total == 5000


def test_bench_verify_pairs_lossy(benchmark):
    """The fetch-and-verify step on candidates a lossy signature let
    through: elements drawn from 10 000 values into 64 bits, so most
    candidates fail the subset test.  Joins over a domain below the
    width skip this step (DESIGN.md §1.20); this keeps it timed."""
    from repro.core.metrics import JoinMetrics
    from repro.core.operator import Testbed, verify_pairs
    from repro.core.sets import Relation, SetTuple

    bits = 64
    rng = random.Random(11)
    lhs = Relation([
        SetTuple(tid, rng.sample(range(10_000), 3)) for tid in range(300)
    ], "R")
    rhs = Relation([
        SetTuple(tid, rng.sample(range(10_000), 40)
                 + (list(lhs[tid].elements) if tid < 30 else []))
        for tid in range(400)
    ], "S")
    packed = pack_signatures(
        [signature_of(row.elements, bits) for row in rhs], bits
    )
    pairs = sorted(
        (r.tid, int(s_tid))
        for r in lhs
        for s_tid in included_in_any_matrix(
            signature_of(r.elements, bits), packed, bits
        ).nonzero()[0]
    )
    with Testbed() as testbed:
        testbed.load(lhs, rhs)

        def run():
            metrics = JoinMetrics()
            return verify_pairs(testbed, pairs, None, metrics), metrics

        result, metrics = benchmark(run)
    assert len(result) >= 30
    assert metrics.false_positives >= 0.5 * len(pairs)
