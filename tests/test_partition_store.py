"""Tests for the portioned partition store."""

import pytest

from repro.errors import ConfigurationError, SerializationError
from repro.storage.buffer import BufferPool
from repro.storage.pager import InMemoryDiskManager
from repro.storage.partition_store import PartitionStore


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
