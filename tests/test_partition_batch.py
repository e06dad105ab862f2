"""The columnar partition path against the per-tuple one it replaced.

Every array step of ``partition_relation`` — signatures, hash evaluation,
DCJ routing, modulo folding, the default adapter over a scalar ``assign``,
the partition store's run append — has a scalar counterpart that stays in
the package as the per-tuple API.  These tests hold each step, and the
loop as a whole, to that counterpart: same partitions, same order, same
counters, same stored bytes.
"""

import random

import numpy as np
import pytest

from repro.core.dcj import ALTERNATION_PATTERNS, DCJPartitioner
from repro.core.hashing import (
    BitstringHashFamily,
    ExplicitHashFamily,
    paper_example_family,
)
from repro.core.lsj import LSJPartitioner
from repro.core.modulo import ModuloFoldPartitioner, make_partitioner
from repro.core.operator import SetContainmentJoin, Testbed, partition_relation
from repro.core.partitioning import Partitioner, assign_batch
from repro.core.psj import PSJPartitioner
from repro.core.sets import Relation
from repro.core.signatures import signature_matrix, signature_of
from repro.errors import ConfigurationError
from repro.storage.buffer import BufferPool
from repro.storage.pager import InMemoryDiskManager
from repro.storage.partition_store import PartitionStore
from repro.storage.relation_store import BATCH_TUPLES
from repro.storage.serialization import encode_partition_entry


def columnar(sets):
    """``(elements, offsets)`` of a list of sets, elements ascending."""
    flat = [element for elements in sets for element in sorted(elements)]
    offsets = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum([len(elements) for elements in sets], out=offsets[1:])
    return np.array(flat, dtype=np.int64), offsets


def random_sets(count, seed, domain=400, largest=40):
    rng = random.Random(seed)
    sets = [
        frozenset(rng.sample(range(domain), rng.randint(1, largest)))
        for __ in range(count)
    ]
    sets[0] = frozenset()
    sets[count // 2] = frozenset()
    return sets


def scalar_assignment(assign, sets):
    """The per-tuple loop's ``(rows, partitions)``."""
    rows, partitions = [], []
    for row, elements in enumerate(sets):
        for index in assign(elements):
            rows.append(row)
            partitions.append(index)
    return rows, partitions


def assert_batch_equals_scalar(batch, assign, sets):
    rows, partitions = batch(*columnar(sets))
    assert (rows.tolist(), partitions.tolist()) == scalar_assignment(assign, sets)


class TestSignatureMatrix:
    @pytest.mark.parametrize("bits", [1, 4, 7, 8, 63, 64, 65, 100, 160, 200])
    def test_rows_are_the_big_endian_scalar_signatures(self, bits):
        sets = random_sets(50, seed=bits, domain=5_000)
        width = (bits + 7) // 8
        matrix = signature_matrix(*columnar(sets), bits)
        assert matrix.shape == (len(sets), width) and matrix.dtype == np.uint8
        assert [row.tobytes() for row in matrix] == [
            signature_of(elements, bits).to_bytes(width, "big")
            for elements in sets
        ]

    def test_empty_batch_and_bad_width(self):
        assert signature_matrix(*columnar([]), 160).shape == (0, 20)
        with pytest.raises(ConfigurationError):
            signature_matrix(*columnar([{1}]), 0)


class TestEvaluateBatch:
    def masks(self, fired):
        return [
            sum(1 << index for index, bit in enumerate(row) if bit)
            for row in fired.tolist()
        ]

    @pytest.mark.parametrize("length, functions", [(1, 1), (7, 3), (124, 13),
                                                   (124, 124)])
    def test_bitstring_lookup_table_equals_evaluate(self, length, functions):
        family = BitstringHashFamily(length, num_functions=functions)
        sets = random_sets(80, seed=length, domain=3_000)
        fired = family.evaluate_batch(*columnar(sets))
        assert fired.shape == (len(sets), functions)
        assert self.masks(fired) == [family.evaluate(s) for s in sets]

    def test_bitstring_with_explicit_indices(self):
        family = BitstringHashFamily(16, indices=[9, 0, 15, 3])
        sets = random_sets(40, seed=2, domain=64)
        assert self.masks(family.evaluate_batch(*columnar(sets))) == [
            family.evaluate(s) for s in sets
        ]

    def test_default_adapts_the_scalar_family(self):
        family = paper_example_family()
        sets = [frozenset(s) for s in ([], [2], [3, 5], [1], [14, 9], [6, 35])]
        fired = family.evaluate_batch(*columnar(sets))
        assert fired.shape == (6, 3)
        assert self.masks(fired) == [family.evaluate(s) for s in sets]
        assert family.evaluate_batch(*columnar([])).shape == (0, 3)


class TestDCJArrayRouting:
    @pytest.mark.parametrize("pattern", ALTERNATION_PATTERNS)
    @pytest.mark.parametrize("levels", [1, 2, 7, 13])
    @pytest.mark.parametrize("side", ["r", "s"])
    def test_equals_the_per_tuple_walk(self, pattern, levels, side):
        family = BitstringHashFamily(31, num_functions=levels)
        sets = random_sets(60, seed=levels, domain=200, largest=12)
        scalar = DCJPartitioner(family, levels, pattern)
        batched = DCJPartitioner(family, levels, pattern)
        expected = [
            index
            for elements in sets
            for index in scalar._route(family.evaluate(elements), side == "r")
        ]
        rows, partitions = getattr(batched, f"assign_{side}_batch")(
            *columnar(sets)
        )
        assert partitions.tolist() == expected
        assert (rows.tolist(), partitions.tolist()) == scalar_assignment(
            getattr(DCJPartitioner(family, levels, pattern), f"assign_{side}"),
            sets,
        )
        assert batched.route_stats() == scalar.route_stats()
        assert sum(batched.route_stats().values()) > 0

    @pytest.mark.parametrize("levels", [1, 2, 7, 13])
    def test_every_s_tuple_replicating_at_every_alpha_node(self, levels):
        # All functions fire on every set and every node is an alpha node:
        # each S tuple reaches all 2**levels leaves, top child first.
        family = BitstringHashFamily(levels, num_functions=levels)
        sets = [frozenset(range(levels)), frozenset(range(2 * levels))] * 2
        scalar = DCJPartitioner(family, levels, "alpha")
        batched = DCJPartitioner(family, levels, "alpha")
        rows, partitions = batched.assign_s_batch(*columnar(sets))
        assert (rows.tolist(), partitions.tolist()) == scalar_assignment(
            scalar.assign_s, sets
        )
        assert len(partitions) == len(sets) * 2**levels
        assert partitions[: 2**levels].tolist() == list(
            range(2**levels - 1, -1, -1)
        )
        assert batched.route_stats() == scalar.route_stats()
        assert batched.route_stats()["alpha_replications"] == (
            len(sets) * (2**levels - 1)
        )

    def test_empty_batch_and_batch_of_empty_sets(self):
        partitioner = DCJPartitioner.for_cardinalities(8, 6, 12)
        rows, partitions = partitioner.assign_r_batch(*columnar([]))
        assert rows.tolist() == partitions.tolist() == []
        sets = [frozenset()] * 3
        fresh = DCJPartitioner.for_cardinalities(8, 6, 12)
        assert_batch_equals_scalar(partitioner.assign_r_batch, fresh.assign_r, sets)
        assert_batch_equals_scalar(partitioner.assign_s_batch, fresh.assign_s, sets)

    def test_stats_accumulate_across_batches_and_reset(self):
        sets = random_sets(90, seed=4)
        scalar = DCJPartitioner.for_cardinalities(16, 8, 16)
        batched = DCJPartitioner.for_cardinalities(16, 8, 16)
        for elements in sets:
            scalar.assign_r(elements)
            scalar.assign_s(elements)
        for lo in (0, 30, 60):
            batched.assign_r_batch(*columnar(sets[lo : lo + 30]))
            batched.assign_s_batch(*columnar(sets[lo : lo + 30]))
        assert batched.route_stats() == scalar.route_stats()
        batched.reset_route_stats()
        assert set(batched.route_stats().values()) == {0}

    def test_an_explicit_family_routes_through_the_default_evaluation(self):
        table = {frozenset({1}): 0b01, frozenset({2}): 0b10,
                 frozenset({1, 2}): 0b11, frozenset(): 0}
        sets = list(table)
        scalar = DCJPartitioner(ExplicitHashFamily(table, 2))
        batched = DCJPartitioner(ExplicitHashFamily(table, 2))
        assert_batch_equals_scalar(batched.assign_s_batch, scalar.assign_s, sets)
        assert_batch_equals_scalar(batched.assign_r_batch, scalar.assign_r, sets)


class TestModuloFoldBatch:
    @pytest.mark.parametrize("k", [1, 3, 48, 63])
    @pytest.mark.parametrize("algorithm", ["DCJ", "LSJ"])
    def test_fold_equals_the_scalar_fold(self, algorithm, k):
        sets = random_sets(70, seed=k)
        batched = make_partitioner(algorithm, k, 8, 16)
        scalar = make_partitioner(algorithm, k, 8, 16)
        assert batched.num_partitions == k
        assert_batch_equals_scalar(batched.assign_r_batch, scalar.assign_r, sets)
        assert_batch_equals_scalar(batched.assign_s_batch, scalar.assign_s, sets)

    def test_fold_over_a_scalar_base(self):
        base = LSJPartitioner.for_cardinalities(16, 8, 16)
        folded = ModuloFoldPartitioner(base, 5)
        sets = random_sets(40, seed=1)
        assert_batch_equals_scalar(folded.assign_s_batch, folded.assign_s, sets)


class TestDefaultAdapter:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_psj_draws_the_elements_the_scalar_loop_draws(self, seed):
        sets = random_sets(120, seed=3)
        for side in ("r", "s"):
            batched = PSJPartitioner(16, seed=seed)
            scalar = PSJPartitioner(16, seed=seed)
            assert_batch_equals_scalar(
                getattr(batched, f"assign_{side}_batch"),
                getattr(scalar, f"assign_{side}"), sets,
            )
            # Both generators are now at the same point of their streams.
            assert batched._rng.random() == scalar._rng.random()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_psj_join_keeps_y_and_per_partition_tids(self, seed, small_workload):
        lhs, rhs = small_workload
        with Testbed() as testbed:
            testbed.load(lhs, rhs)
            join = SetContainmentJoin(testbed, PSJPartitioner(16, seed=seed))
            parts_r, parts_s = join._partition_phase(fresh_metrics(join))
            stored = [
                [[tid for __, tid in parts.scan_partition(index)]
                 for index in range(16)]
                for parts in (parts_r, parts_s)
            ]
        scalar = PSJPartitioner(16, seed=seed)
        expected = []
        for relation, assign in ((lhs, scalar.assign_r), (rhs, scalar.assign_s)):
            partitions = [[] for __ in range(16)]
            for row in sorted(relation, key=lambda row: row.tid):
                for index in assign(row.elements):
                    partitions[index].append(row.tid)
            expected.append(partitions)
        assert stored == expected

    def test_adapter_hands_assign_frozensets_of_python_ints(self):
        seen = []

        def assign(elements):
            seen.append(elements)
            return [len(elements) % 2] * 2

        rows, partitions = assign_batch(assign, *columnar([{5, 3}, set(), {9}]))
        assert seen == [frozenset({3, 5}), frozenset(), frozenset({9})]
        assert all(type(e) is int for elements in seen for e in elements)
        assert rows.tolist() == [0, 0, 1, 1, 2, 2]
        assert partitions.tolist() == [0, 0, 0, 0, 1, 1]


def fresh_metrics(join):
    from repro.core.metrics import JoinMetrics
    from repro.obs.trace import current_tracer

    join._run_tracer = current_tracer()
    return JoinMetrics(
        algorithm=join.partitioner.name,
        num_partitions=join.partitioner.num_partitions,
        r_size=len(join.testbed.relation_r),
        s_size=len(join.testbed.relation_s),
        signature_bits=join.signature_bits,
    )


# ----------------------------------------------------------------------
# The loop as a whole: stored records, byte for byte
# ----------------------------------------------------------------------

def reference_partition_relation(relation, assign, store, signature_bits,
                                 resident=()):
    """``partition_relation`` as it stood before the columnar path."""
    pinned = len(resident)
    for tid, elements, __ in relation.scan():
        signature = signature_of(elements, signature_bits)
        for index in assign(elements):
            if index < pinned:
                resident[index] += encode_partition_entry(
                    signature, tid, store.signature_bytes
                )
            else:
                store.append(index, signature, tid)
    store.seal()


def stored_relation(count=2 * BATCH_TUPLES + 40, seed=6):
    rng = random.Random(seed)
    sets = [
        frozenset(rng.sample(range(3_000), rng.randint(1, 30)))
        for __ in range(count)
    ]
    sets[5] = frozenset()
    return Relation.from_sets(sets, name="R")


PARTITIONERS = {
    "dcj-k4": lambda: DCJPartitioner.for_cardinalities(4, 8, 16),
    "dcj-k128": lambda: DCJPartitioner.for_cardinalities(128, 8, 16),
    "dcj-k48": lambda: make_partitioner("DCJ", 48, 8, 16),
    "psj-k16": lambda: PSJPartitioner(16, seed=3),
    "lsj-k8": lambda: LSJPartitioner.for_cardinalities(8, 8, 16),
}


class TestStoredRecordsAreByteIdentical:
    def run_both(self, make, side, signature_bits=160, resident=0,
                 monolithic=False, page_size=4096):
        relation = stored_relation()
        outcomes = []
        for reference in (False, True):
            pool = BufferPool(InMemoryDiskManager(page_size), capacity=64)
            with Testbed.from_components(pool.disk, pool, None, None) as testbed:
                testbed.load(relation, relation)
                store = PartitionStore(
                    pool, (signature_bits + 7) // 8,
                    make().num_partitions, monolithic=monolithic,
                )
                runs = [bytearray() for __ in range(resident)]
                partitioner = make()
                if reference:
                    reference_partition_relation(
                        testbed.relation_r,
                        getattr(partitioner, f"assign_{side}"),
                        store, signature_bits, runs,
                    )
                else:
                    partition_relation(
                        testbed.relation_r,
                        getattr(partitioner, f"assign_{side}_batch"),
                        store, signature_bits, runs,
                    )
                pool.flush_all()
                outcomes.append((
                    list(store._tree.items()),
                    [bytes(run) for run in runs],
                    store._entry_counts,
                    [pool.disk.read_page(page)
                     for page in range(pool.disk.num_pages)],
                    partitioner.route_stats(),
                ))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    @pytest.mark.parametrize("name", sorted(PARTITIONERS))
    @pytest.mark.parametrize("side", ["r", "s"])
    def test_partitioners(self, name, side):
        items, *__ = self.run_both(PARTITIONERS[name], side)
        assert len(items) > 1

    @pytest.mark.parametrize("signature_bits", [8, 100, 160])
    def test_signature_widths(self, signature_bits):
        self.run_both(PARTITIONERS["dcj-k4"], "s", signature_bits=signature_bits)

    def test_resident_partitions_receive_their_runs(self):
        items, runs, counts, *__ = self.run_both(
            PARTITIONERS["dcj-k4"], "s", resident=2
        )
        assert all(runs) and counts[0] == counts[1] == 0
        assert {key[:4] for key, __ in items} == {
            (2).to_bytes(4, "big"), (3).to_bytes(4, "big")
        }

    def test_monolithic_partitions(self):
        items, *__ = self.run_both(
            PARTITIONERS["dcj-k128"], "r", monolithic=True
        )
        # One growing record per partition, rewritten on every append.
        assert all(key[4:] == bytes(4) for key, __ in items)

    def test_small_pages_flush_in_the_scalar_order(self):
        # 1 KiB pages: portions fill every ~17 entries, so a batch flushes
        # many portions of many partitions and the B-tree splits often.
        items, *__ = self.run_both(PARTITIONERS["dcj-k4"], "s", page_size=1024)
        assert len(items) > 50


class TestAppendEntries:
    def make(self, **kwargs):
        pool = BufferPool(InMemoryDiskManager(1024), capacity=64)
        return PartitionStore(pool, 4, 5, **kwargs)

    @pytest.mark.parametrize("monolithic", [False, True])
    def test_a_run_equals_as_many_appends(self, monolithic):
        rng = random.Random(8)
        entries = [(rng.randrange(5), rng.getrandbits(32), tid)
                   for tid in range(30 if monolithic else 400)]
        one_by_one, as_run = self.make(monolithic=monolithic), self.make(
            monolithic=monolithic)
        for entry in entries:
            one_by_one.append(*entry)
        as_run.append_entries(
            [partition for partition, __, __ in entries],
            b"".join(encode_partition_entry(signature, tid, 4)
                     for __, signature, tid in entries),
        )
        for store in (one_by_one, as_run):
            store.seal()
        assert list(as_run._tree.items()) == list(one_by_one._tree.items())
        assert as_run._entry_counts == one_by_one._entry_counts
        assert as_run.total_entries == len(entries)

    def test_out_of_range_partition_rejected(self):
        store = self.make()
        entry = encode_partition_entry(1, 1, 4)
        for bad in (5, -1):
            with pytest.raises(ConfigurationError, match="out of range"):
                store.append_entries([0, bad], entry * 2)
        assert store.total_entries == 0

    def test_run_length_must_match_and_store_must_be_open(self):
        store = self.make()
        with pytest.raises(ConfigurationError):
            store.append_entries([0, 1], encode_partition_entry(1, 1, 4))
        store.append_entries([], b"")
        store.seal()
        with pytest.raises(ConfigurationError, match="sealed"):
            store.append_entries([0], encode_partition_entry(1, 1, 4))


class OutOfRange(Partitioner):
    name = "broken"

    def assign_r(self, elements):
        return [self.num_partitions]

    def assign_s(self, elements):
        return [0]


def test_out_of_range_partition_from_a_custom_partitioner_raises(small_workload):
    lhs, rhs = small_workload
    with Testbed() as testbed:
        testbed.load(lhs, rhs)
        with pytest.raises(ConfigurationError, match="out of range"):
            SetContainmentJoin(testbed, OutOfRange(4)).run()


def test_a_scalar_only_custom_partitioner_joins_correctly(small_workload):
    """A partitioner that defines only ``assign_r``/``assign_s`` runs
    through the same loop by the default adapter."""
    from repro.core.operator import run_disk_join
    from repro.core.sets import containment_pairs_nested_loop

    class EverythingEverywhere(Partitioner):
        name = "all"

        def assign_r(self, elements):
            return [min(elements, default=0) % self.num_partitions]

        def assign_s(self, elements):
            return list(range(self.num_partitions))

    lhs, rhs = small_workload
    pairs, metrics = run_disk_join(lhs, rhs, EverythingEverywhere(3))
    assert pairs == containment_pairs_nested_loop(lhs, rhs)
    assert metrics.replicated_signatures == len(lhs) + 3 * len(rhs)
