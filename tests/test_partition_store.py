"""Tests for the portioned partition store."""

import random

import pytest

from repro.core.modulo import make_partitioner
from repro.core.operator import SetContainmentJoin, Testbed
from repro.data.workloads import uniform_workload
from repro.errors import ConfigurationError, SerializationError
from repro.storage import partition_store
from repro.storage.btree import BTree
from repro.storage.buffer import BufferPool
from repro.storage.pager import FileDiskManager, InMemoryDiskManager
from repro.storage.partition_store import PartitionStore
from repro.storage.serialization import encode_partition_entry


@pytest.fixture()
def pool():
    return BufferPool(InMemoryDiskManager(1024), capacity=64)


def make_store(pool, partitions=4, signature_bytes=20, **kwargs):
    return PartitionStore(pool, signature_bytes, partitions, **kwargs)


class TestWriteAndScan:
    def test_roundtrip_one_partition(self, pool):
        store = make_store(pool)
        entries = [(i * 1000 + 1, i) for i in range(50)]
        for signature, tid in entries:
            store.append(0, signature, tid)
        store.seal()
        assert list(store.scan_partition(0)) == entries
        assert list(store.scan_partition(1)) == []

    def test_entries_span_multiple_portions(self, pool):
        store = make_store(pool, partitions=1)
        count = store.portion_entries * 3 + 5
        for value in range(count):
            store.append(0, value, value)
        store.seal()
        assert store.partition_size(0) == count
        assert [tid for __, tid in store.scan_partition(0)] == list(range(count))

    def test_batches_group_portions(self, pool):
        store = make_store(pool, partitions=1)
        count = store.portion_entries * 5
        for value in range(count):
            store.append(0, value, value)
        store.seal()
        batches = list(store.scan_partition_batches(0, batch_portions=2))
        assert sum(len(batch) for batch in batches) == count
        assert len(batches) == 3  # 2 + 2 + 1 portions

    def test_total_entries_counts_replication(self, pool):
        store = make_store(pool)
        store.append(0, 1, 1)
        store.append(1, 1, 1)  # same tuple replicated to another partition
        store.append(2, 2, 2)
        store.seal()
        assert store.total_entries == 3

    def test_interleaved_partitions(self, pool):
        store = make_store(pool, partitions=3)
        for value in range(90):
            store.append(value % 3, value, value)
        store.seal()
        for partition in range(3):
            tids = [tid for __, tid in store.scan_partition(partition)]
            assert tids == [v for v in range(90) if v % 3 == partition]


class TestValidation:
    def test_append_after_seal_rejected(self, pool):
        store = make_store(pool)
        store.seal()
        with pytest.raises(ConfigurationError):
            store.append(0, 1, 1)

    def test_scan_before_seal_rejected(self, pool):
        store = make_store(pool)
        store.append(0, 1, 1)
        with pytest.raises(ConfigurationError):
            next(store.scan_partition_batches(0))

    def test_partition_out_of_range(self, pool):
        store = make_store(pool)
        with pytest.raises(ConfigurationError):
            store.append(4, 1, 1)
        with pytest.raises(ConfigurationError):
            store.append(-1, 1, 1)

    def test_invalid_construction(self, pool):
        with pytest.raises(ConfigurationError):
            PartitionStore(pool, 20, 0)
        with pytest.raises(ConfigurationError):
            PartitionStore(pool, 0, 4)
        with pytest.raises(ConfigurationError):
            PartitionStore(pool, 20, 4, portion_entries=10_000)

    def test_seal_is_idempotent(self, pool):
        store = make_store(pool)
        store.append(0, 1, 1)
        store.seal()
        store.seal()
        assert store.partition_size(0) == 1


class TestAttachedViews:
    """Read-only views over a sealed store's pages, as opened by
    parallel join workers through their own buffer pools."""

    def seal_store(self, pool, partitions=3):
        store = make_store(pool, partitions=partitions)
        for value in range(90):
            store.append(value % partitions, value, value)
        store.seal()
        return store

    def test_attach_scans_identically(self, pool):
        store = self.seal_store(pool)
        view = PartitionStore.attach(
            pool, store.meta_page_id, store.signature_bytes,
            store.num_partitions,
        )
        for partition in range(3):
            assert list(view.scan_partition(partition)) == list(
                store.scan_partition(partition)
            )

    def test_attach_reports_sizes_when_given_counts(self, pool):
        store = self.seal_store(pool)
        counts = [store.partition_size(p) for p in range(3)]
        view = PartitionStore.attach(
            pool, store.meta_page_id, store.signature_bytes,
            store.num_partitions, entry_counts=counts,
        )
        assert [view.partition_size(p) for p in range(3)] == counts

    def test_attached_view_is_sealed(self, pool):
        store = self.seal_store(pool)
        view = PartitionStore.attach(
            pool, store.meta_page_id, store.signature_bytes,
            store.num_partitions,
        )
        with pytest.raises(ConfigurationError):
            view.append(0, 1, 1)

    def test_attached_view_cannot_drop_shared_pages(self, pool):
        store = self.seal_store(pool)
        view = PartitionStore.attach(
            pool, store.meta_page_id, store.signature_bytes,
            store.num_partitions,
        )
        with pytest.raises(ConfigurationError):
            view.drop()
        # The owning store can still scan — nothing was freed.
        assert store.partition_size(0) == 30


class TestMonolithicMode:
    def test_small_partitions_work(self, pool):
        store = make_store(pool, monolithic=True)
        for value in range(10):
            store.append(value % 4, value, value)
        store.seal()
        for partition in range(4):
            tids = [tid for __, tid in store.scan_partition(partition)]
            assert tids == [v for v in range(10) if v % 4 == partition]

    def test_monolithic_overflows(self, pool):
        """The paper's rejected design: one growing record per partition
        cannot hold large partitions."""
        store = make_store(pool, partitions=1, monolithic=True)
        with pytest.raises(ConfigurationError):
            for value in range(10_000):
                store.append(0, value, value)


class TestArrayScan:
    """The byte-level read path of the join phase keeps the list path's
    batches and every one of its checks."""

    def seal_store(self, pool, count):
        store = make_store(pool, partitions=2)
        for value in range(count):
            store.append(0, (value << 150) | value, value * 3)
        store.seal()
        return store

    @staticmethod
    def as_entries(batches):
        return [
            [(int.from_bytes(bytes(row), "big"), tid)
             for row, tid in zip(signatures, tids.tolist())]
            for signatures, tids in batches
        ]

    def test_same_batches_as_the_list_scan(self, pool):
        store = self.seal_store(pool, 200)
        arrays = list(store.scan_partition_arrays(0, batch_portions=2))
        assert all(signatures.shape == (len(tids), 20)
                   for signatures, tids in arrays)
        batches = list(store.scan_partition_batches(0, batch_portions=2))
        assert self.as_entries(arrays) == batches
        assert sum(map(len, batches)) == 200
        assert list(store.scan_partition_arrays(1)) == []

    def test_scan_before_seal_rejected(self, pool):
        store = make_store(pool)
        store.append(0, 1, 1)
        with pytest.raises(ConfigurationError):
            next(store.scan_partition_arrays(0))

    def test_truncated_portion_record_rejected(self, pool):
        store = self.seal_store(pool, 5)
        key = (0).to_bytes(8, "big")
        store._tree.insert(key, store._tree.get(key)[:-1])
        for scan in (store.scan_partition_arrays, store.scan_partition_batches):
            with pytest.raises(SerializationError, match="truncated"):
                next(scan(0))

    def test_scans_through_an_attached_view(self, pool):
        store = self.seal_store(pool, 200)
        view = PartitionStore.attach(
            pool, store.meta_page_id, store.signature_bytes,
            store.num_partitions,
        )
        assert self.as_entries(view.scan_partition_arrays(0)) == list(
            store.scan_partition_batches(0)
        )


# ----------------------------------------------------------------------
# Portion pages against the layout they replaced
# ----------------------------------------------------------------------


class ReferenceStore:
    """The B-tree layout portion pages replaced, kept as the oracle of
    every partition's entry run: portions of as many entries as fit half
    a node, each inserted into one B-tree the moment it fills, entry by
    entry."""

    def __init__(self, pool, signature_bytes, num_partitions):
        self.entry_size = signature_bytes + 8
        self.portion_entries = max(
            1, ((pool.disk.payload_size - 27) // 2 - 32) // self.entry_size
        )
        self.tree = BTree.create(pool)
        self.buffers = [bytearray() for __ in range(num_partitions)]
        self.portions = [0] * num_partitions

    def append_entries(self, partitions, raw):
        size = self.entry_size
        for offset, partition in zip(range(0, len(raw), size), partitions):
            self.buffers[partition] += raw[offset : offset + size]
            if len(self.buffers[partition]) >= self.portion_entries * size:
                self.flush(partition)

    def flush(self, partition):
        if self.buffers[partition]:
            key = partition.to_bytes(4, "big") + self.portions[partition].to_bytes(
                4, "big")
            self.tree.insert(key, bytes(self.buffers[partition]))
            self.portions[partition] += 1
            self.buffers[partition].clear()

    def seal(self):
        for partition in range(len(self.buffers)):
            self.flush(partition)

    def run(self, partition):
        start = partition.to_bytes(4, "big") + bytes(4)
        end = (partition + 1).to_bytes(4, "big") + bytes(4)
        return b"".join(value for __, value in self.tree.scan(start, end))


def stored_runs(store):
    return [b"".join(store.scan_partition_records(partition))
            for partition in range(store.num_partitions)]


def random_batches(rng, k, portion_entries, signature_bytes):
    """Batches of (partitions, raw) over a skewed partition choice with
    some partitions left empty and partition 0 filled to an exact
    multiple of a portion."""
    others = rng.sample(range(1, k), k - 1 - k // 3)
    weights = [rng.random() ** 3 + 0.01 for __ in others]
    partitions = [0] * (2 * portion_entries)
    if others:
        partitions += rng.choices(
            others, weights, k=rng.randint(0, 6 * portion_entries))
    rng.shuffle(partitions)
    tid = 0
    batches = []
    while partitions:
        size = rng.choice([1, 7, 256, 1000])
        chunk, partitions = partitions[:size], partitions[size:]
        raw = b"".join(
            encode_partition_entry(rng.getrandbits(8 * signature_bytes),
                                   tid + at, signature_bytes)
            for at in range(len(chunk))
        )
        tid += len(chunk)
        batches.append((chunk, raw))
    return batches


class TestPortionPages:
    @pytest.mark.parametrize("page_size", [512, 4096])
    @pytest.mark.parametrize("k", [1, 3, 8, 48])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_runs_equal_the_btree_layout(self, page_size, k, seed):
        rng = random.Random(seed * 1000 + k + page_size)
        signature_bytes = rng.choice([1, 4, 20])
        stores = []
        for cls in (PartitionStore, ReferenceStore):
            pool = BufferPool(InMemoryDiskManager(page_size), capacity=32)
            stores.append(cls(pool, signature_bytes, k))
        store, reference = stores
        batches = random_batches(
            rng, k, store.portion_entries, signature_bytes)
        for partitions, raw in batches:
            for target in stores:
                target.append_entries(partitions, raw)
        for target in stores:
            target.seal()
        runs = stored_runs(store)
        assert runs == [reference.run(p) for p in range(k)]
        assert sum(map(len, runs)) == store.total_entries * store.entry_size
        assert len(runs[0]) == 2 * store.portion_entries * store.entry_size
        assert k < 3 or not all(runs)  # some partition stayed empty

    def test_a_portion_is_one_page(self, pool):
        store = make_store(pool, partitions=1)
        assert store.portion_entries == pool.disk.payload_size // store.entry_size
        live = pool.disk.num_live_pages
        for value in range(store.portion_entries * 2):
            store.append(0, value, value)
        assert pool.disk.num_live_pages == live + 2  # two pages, no index yet
        with pytest.raises(ConfigurationError, match="seal"):
            store.meta_page_id

    def test_partitioning_does_no_btree_insert(self, pool, monkeypatch):
        def refuse(*args):
            raise AssertionError("B-tree insert while partitioning")

        monkeypatch.setattr(BTree, "insert", refuse)
        store = make_store(pool, partitions=5)
        rng = random.Random(4)
        for partitions, raw in random_batches(rng, 5, store.portion_entries, 20):
            store.append_entries(partitions, raw)
        store.seal()
        assert len(store._pages) >= 2  # partition 0's two full portions

    def test_attached_view_through_a_second_disk_manager(self, tmp_path):
        path = str(tmp_path / "parts.db")
        disk = FileDiskManager(path, 1024, fsync=False)
        pool = BufferPool(disk, capacity=8)
        store = PartitionStore(pool, 20, 6)
        for partitions, raw in random_batches(
            random.Random(9), 6, store.portion_entries, 20
        ):
            store.append_entries(partitions, raw)
        store.seal()
        pool.flush_all()
        disk.flush()
        other = FileDiskManager(path, 1024, fsync=False)
        try:
            view = PartitionStore.attach(
                BufferPool(other, capacity=8), store.meta_page_id, 20, 6
            )
            assert stored_runs(view) == stored_runs(store)
            assert other.stats.page_writes == 0
        finally:
            other.close()
            disk.close()


class TestDropReclaimsEveryPage:
    def fill(self, store, seed=2):
        for partitions, raw in random_batches(
            random.Random(seed), store.num_partitions, store.portion_entries,
            store.signature_bytes,
        ):
            store.append_entries(partitions, raw)

    def test_after_seal(self, pool):
        live = pool.disk.num_live_pages
        store = make_store(pool, partitions=7)
        self.fill(store)
        store.seal()
        assert pool.disk.num_live_pages > live + 2
        assert store.drop() == pool.disk.num_free_pages
        assert pool.disk.num_live_pages == live
        assert store.drop() == 0  # idempotent

    def test_before_seal(self, pool):
        live = pool.disk.num_live_pages
        store = make_store(pool, partitions=7)
        self.fill(store)
        assert pool.disk.num_live_pages > live  # full portions are on pages
        store.drop()
        assert pool.disk.num_live_pages == live
        assert store.drop() == 0
        with pytest.raises(ConfigurationError):
            next(store.scan_partition_records(0))

    def test_on_a_failure_mid_partition(self):
        lhs, rhs = uniform_workload(
            900, 900, 4, 8, domain_size=500, seed=3
        ).materialize()
        partitioner = make_partitioner("DCJ", 2, 4, 8)
        assign_s_batch = partitioner.assign_s_batch
        calls = []

        def fail_on_second_batch(elements, offsets):
            calls.append(len(offsets))
            if len(calls) == 2:
                raise OSError("injected failure mid-partition")
            return assign_s_batch(elements, offsets)

        partitioner.assign_s_batch = fail_on_second_batch
        with Testbed() as testbed:
            testbed.load(lhs, rhs)
            live = testbed.disk.num_live_pages
            allocated = testbed.disk.stats.pages_allocated
            with pytest.raises(OSError, match="injected"):
                SetContainmentJoin(testbed, partitioner).run()
            # R was sealed and S had full portions on pages when it failed.
            assert testbed.disk.stats.pages_allocated > allocated + 4
            assert testbed.disk.num_live_pages == live


class TestCorruptIndexValues:
    def sealed(self, pool):
        store = make_store(pool, partitions=1)
        for value in range(store.portion_entries + 3):
            store.append(0, value, value)
        store.seal()
        return store

    def corrupt(self, store, value):
        key = bytes(8)  # partition 0, portion 0: the page reference
        assert store._tree.get(key)[:1] == partition_store._ON_PAGE
        store._tree.insert(key, value)

    @pytest.mark.parametrize("length, match", [
        (10_000, "exceeds"), (29, "truncated"),
    ])
    def test_a_bad_reference_length_is_rejected(self, pool, length, match):
        store = self.sealed(pool)
        page_id, __ = partition_store._PAGE_REF.unpack(store._tree.get(bytes(8))[1:])
        self.corrupt(store, partition_store._ON_PAGE
                     + partition_store._PAGE_REF.pack(page_id, length))
        for scan in (store.scan_partition_arrays, store.scan_partition_batches):
            with pytest.raises(SerializationError, match=match):
                next(scan(0))

    @pytest.mark.parametrize("value", [b"", b"\x07abc", b"\x01short"])
    def test_an_unknown_value_is_rejected(self, pool, value):
        store = self.sealed(pool)
        self.corrupt(store, value)
        with pytest.raises(SerializationError, match="corrupt"):
            next(store.scan_partition_records(0))
