"""Tests for the tid-keyed relation store."""

import numpy as np
import pytest

from repro.storage.btree import parse_leaves
from repro.storage.buffer import BufferPool
from repro.storage.pager import InMemoryDiskManager
from repro.storage.relation_store import RelationStore


@pytest.fixture()
def pool():
    return BufferPool(InMemoryDiskManager(1024), capacity=64)


@pytest.fixture()
def store(pool):
    return RelationStore.create(pool, name="R")


class TestRelationStore:
    def test_insert_and_fetch(self, store):
        store.insert(7, {1, 2, 3}, b"payload")
        assert store.fetch(7) == (frozenset({1, 2, 3}), b"payload")
        assert store.fetch_set(7) == frozenset({1, 2, 3})

    def test_fetch_missing(self, store):
        assert store.fetch(1) is None
        assert store.fetch_set(1) is None

    def test_len_and_contains(self, store):
        store.insert(1, {1})
        store.insert(2, {2})
        store.insert(1, {9})  # overwrite, not a new tuple
        assert len(store) == 2
        assert 1 in store
        assert 3 not in store
        assert store.fetch_set(1) == frozenset({9})

    def test_bulk_load_with_payload_size(self, store):
        count = store.bulk_load([(i, {i, i + 1}) for i in range(40)], payload_size=16)
        assert count == 40
        assert len(store) == 40
        __, payload = store.fetch(5)
        assert payload == bytes(16)

    def test_scan_in_tid_order(self, store):
        for tid in (30, 10, 20):
            store.insert(tid, {tid})
        assert [tid for tid, __, __ in store.scan()] == [10, 20, 30]
        assert list(store.tids()) == [10, 20, 30]

    def test_fetch_many_ignores_missing_and_dedups(self, store):
        store.insert(1, {1})
        store.insert(2, {2})
        result = store.fetch_many([2, 1, 2, 99])
        assert result == {1: frozenset({1}), 2: frozenset({2})}

    def test_reopen_by_meta_page(self, pool):
        store = RelationStore.create(pool, name="R")
        store.bulk_load([(i, {i}) for i in range(20)])
        pool.flush_all()
        reopened = RelationStore(pool, store.meta_page_id, name="R2")
        assert len(reopened) == 20
        assert reopened.fetch_set(11) == frozenset({11})

    def test_create_sorted_bulk_load(self, pool):
        rows = [(tid, {tid, tid * 3}) for tid in range(200)]
        store = RelationStore.create_sorted(pool, rows, payload_size=8,
                                            name="bulk")
        assert len(store) == 200
        assert store.fetch_set(77) == frozenset({77, 231})
        assert list(store.tids()) == list(range(200))
        __, payload = store.fetch(5)
        assert payload == bytes(8)

    def test_create_sorted_large_sets_chunked(self, pool):
        rows = [(0, set(range(0, 4000, 2))), (1, {9})]
        store = RelationStore.create_sorted(pool, rows)
        assert store.fetch_set(0) == frozenset(range(0, 4000, 2))
        assert store.fetch_set(1) == frozenset({9})

    def test_create_sorted_rejects_unsorted(self, pool):
        from repro.errors import BTreeError

        with pytest.raises(BTreeError):
            RelationStore.create_sorted(pool, [(5, {1}), (2, {1})])

    def test_large_sets_roundtrip(self, store):
        elements = set(range(0, 5000, 7))
        store.insert(1, elements, b"p" * 100)
        assert store.fetch_set(1) == frozenset(elements)


# ----------------------------------------------------------------------
# The batch paths against the per-tuple ones
# ----------------------------------------------------------------------

def batch_rows(store):
    """``scan_batches`` unpacked to ``scan``'s ``(tid, frozenset)`` rows,
    with the tuple count of each batch."""
    rows, sizes = [], []
    for tids, elements, offsets in store.scan_batches():
        flat, bounds = elements.tolist(), offsets.tolist()
        sizes.append(len(tids))
        rows += [
            (tid, frozenset(flat[lo:hi]))
            for tid, lo, hi in zip(tids.tolist(), bounds, bounds[1:])
        ]
    return rows, sizes


def scan_rows(store):
    return [(tid, elements) for tid, elements, __ in store.scan()]


def all_pages(pool):
    pool.flush_all()
    return [pool.disk.read_page(page) for page in range(pool.disk.num_pages)]


def reference_create_sorted(pool, tuples, payload_size):
    """The loader as it stood before the batch codec: one scalar
    ``encode_tuple_record`` per tuple, the same chunking, one bulk_create
    over ``(key, value)`` items (``tests/test_btree.py`` holds that to the
    per-item loader it replaced, page for page and fetch for fetch)."""
    from repro.storage.btree import BTree
    from repro.storage.relation_store import _chunk_key
    from repro.storage.serialization import encode_tuple_record

    payload = bytes(payload_size)
    chunk_size = (pool.disk.payload_size - 27) // 2 - 64

    def entries():
        for tid, elements in tuples:
            record = encode_tuple_record(tid, elements, payload)
            for chunk, offset in enumerate(range(0, len(record) or 1, chunk_size)):
                yield _chunk_key(tid, chunk), record[offset : offset + chunk_size]

    return BTree.bulk_create(pool, entries())


def mixed_rows(count, seed=5):
    """Small sets, an empty one, and a 3 000-element set placed so that it
    spans chunks and leaves and sits on a batch boundary."""
    import random

    from repro.storage.relation_store import BATCH_TUPLES

    rng = random.Random(seed)
    rows = [
        (tid, frozenset(rng.sample(range(50_000), rng.randint(1, 30))))
        for tid in range(count)
    ]
    rows[3] = (3, frozenset())
    for tid in (BATCH_TUPLES - 1, BATCH_TUPLES):
        rows[tid] = (tid, frozenset(rng.sample(range(10**6), 3_000)))
    return rows


class TestBatchPaths:
    def test_scan_batches_equals_scan_across_chunks_leaves_and_batches(self, pool):
        from repro.storage.relation_store import BATCH_TUPLES

        rows = mixed_rows(2 * BATCH_TUPLES + 7)
        store = RelationStore.create_sorted(pool, rows, payload_size=16)
        batched, sizes = batch_rows(store)
        assert batched == scan_rows(store) == rows
        # Bounded batches, no tuple split across two of them.
        assert sizes == [BATCH_TUPLES, BATCH_TUPLES, 7]

    def test_scan_batches_on_an_empty_relation(self, pool, store):
        assert list(store.scan_batches()) == []
        assert list(RelationStore.create_sorted(pool, []).scan_batches()) == []

    def test_scan_batches_on_a_store_built_by_random_inserts(self, store):
        import random

        rows = mixed_rows(300, seed=9)
        shuffled = rows[:]
        random.Random(2).shuffle(shuffled)
        for tid, elements in shuffled:
            store.insert(tid, elements, b"\xff" * 40)
        store.insert(7, {1, 2, 3}, b"\xff" * 40)  # overwrite: fewer chunks
        rows[7] = (7, frozenset({1, 2, 3}))
        batched, __ = batch_rows(store)
        assert batched == scan_rows(store) == rows

    def test_scan_batches_reads_the_pages_scan_reads(self, pool):
        store = RelationStore.create_sorted(pool, mixed_rows(600))
        counts = []
        for walk in (store.scan, store.scan_batches):
            pool.flush_all()
            pool.drop_all()
            before = pool.disk.stats.snapshot()
            for __ in walk():
                pass
            counts.append(pool.disk.stats.delta(before).page_reads)
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("payload_size", [0, 16, 100])
    def test_create_sorted_writes_the_pages_the_scalar_loader_wrote(
        self, payload_size
    ):
        rows = mixed_rows(700)
        pools = [BufferPool(InMemoryDiskManager(1024), capacity=64)
                 for __ in range(2)]
        RelationStore.create_sorted(pools[0], rows, payload_size)
        reference_create_sorted(pools[1], rows, payload_size)
        assert all_pages(pools[0]) == all_pages(pools[1])

    def test_bulk_load_writes_the_pages_per_tuple_inserts_wrote(self):
        import random

        rows = mixed_rows(520)
        random.Random(4).shuffle(rows)
        pools = [BufferPool(InMemoryDiskManager(1024), capacity=64)
                 for __ in range(2)]
        loaded = RelationStore.create(pools[0])
        assert loaded.bulk_load(rows, payload_size=24) == len(rows)
        inserted = RelationStore.create(pools[1])
        for tid, elements in rows:
            inserted.insert(tid, elements, bytes(24))
        assert all_pages(pools[0]) == all_pages(pools[1])
        assert len(loaded) == len(inserted) == len(rows)

    def test_bulk_load_streams_its_input(self, store):
        from repro.storage.relation_store import BATCH_TUPLES

        pulled = []

        def rows():
            for tid in range(3 * BATCH_TUPLES):
                pulled.append(tid)
                yield tid, {tid}
                # Nothing is read ahead of the batch being encoded.
                assert len(store) >= len(pulled) - BATCH_TUPLES

        assert store.bulk_load(rows()) == 3 * BATCH_TUPLES

    def test_database_file_and_wal_bytes_match_the_scalar_encoder(
        self, tmp_path, monkeypatch
    ):
        from repro.database import SetJoinDatabase
        from repro.storage import relation_store
        from repro.storage.serialization import encode_tuple_record

        def scalar_records(tids, sets, payload):
            return [encode_tuple_record(tid, elements, payload)
                    for tid, elements in zip(tids, sets)]

        rows = mixed_rows(600)
        images = []
        for name, patched in (("batch", False), ("scalar", True)):
            if patched:
                monkeypatch.setattr(
                    relation_store, "encode_tuple_records", scalar_records
                )
            path = tmp_path / f"{name}.db"
            with SetJoinDatabase.open(str(path), durable=True) as db:
                db.create_relation("R", rows)
            images.append((
                path.read_bytes(),
                (tmp_path / f"{name}.db.wal").read_bytes(),
            ))
        assert images[0] == images[1]
        assert len(images[0][1]) > 0


# ----------------------------------------------------------------------
# The candidate fetch against the one-tuple API
# ----------------------------------------------------------------------

def fetched_rows(store, tids):
    """``fetch_batches`` unpacked to ``(tid, frozenset)`` rows, with the
    tuple count of each batch."""
    rows, sizes = [], []
    for found, elements, offsets in store.fetch_batches(tids):
        flat, bounds = elements.tolist(), offsets.tolist()
        sizes.append(len(found))
        rows += [
            (tid, frozenset(flat[lo:hi]))
            for tid, lo, hi in zip(found.tolist(), bounds, bounds[1:])
        ]
    return rows, sizes


def count_reads(store, walk):
    """Pages fetched from the pool, buffer accesses (hits + misses) and
    the result of ``walk()`` over ``store``'s tree.  A node load and a
    scan's leaf read each fetch their page once."""
    pool, loads = store._tree.pool, []
    original = pool.fetch
    pool.fetch = lambda page: loads.append(page) or original(page)
    before = pool.stats.snapshot()
    try:
        result = walk()
    finally:
        del pool.fetch
    delta = pool.stats.delta(before)
    return loads, delta.hits + delta.misses, result


class TestFetchBatches:
    @pytest.mark.parametrize("payload_size", [0, 16, 100])
    def test_equals_fetch_per_tid_across_chunks_leaves_and_batches(
        self, pool, payload_size
    ):
        import random

        from repro.storage.relation_store import BATCH_TUPLES

        # Odd tids only, so every even one is missing; the 3 000-element
        # tuples sit either side of a batch boundary.
        rows = [(2 * tid + 1, elements)
                for tid, elements in mixed_rows(2 * BATCH_TUPLES + 40)]
        store = RelationStore.create_sorted(pool, rows, payload_size)
        wanted = list(range(0, 4 * BATCH_TUPLES + 90))
        random.Random(3).shuffle(wanted)
        wanted += wanted[:50] + [10**12, -4, 2**64, 2**70]
        fetched, sizes = fetched_rows(store, wanted)
        assert fetched == rows
        assert fetched == [(tid, store.fetch(tid)[0]) for tid, __ in rows]
        assert sizes == [BATCH_TUPLES, BATCH_TUPLES, 40]
        assert store.fetch_many(wanted) == dict(rows)
        assert store.fetch(rows[5][0])[1] == bytes(payload_size)

    def test_on_a_store_built_by_random_inserts(self, store):
        import random

        rows = mixed_rows(300, seed=9)
        shuffled = rows[:]
        random.Random(2).shuffle(shuffled)
        for tid, elements in shuffled:
            store.insert(tid, elements, b"\xff" * 40)
        store.insert(7, {1, 2, 3}, b"\xff" * 40)  # overwrite: fewer chunks
        rows[7] = (7, frozenset({1, 2, 3}))
        wanted = [tid for tid, __ in rows[::3]] + [301, 5000]
        fetched, __ = fetched_rows(store, wanted)
        assert fetched == rows[::3]

    def test_nothing_wanted_reads_nothing(self, pool):
        store = RelationStore.create_sorted(pool, mixed_rows(300))
        loads, accesses, result = count_reads(
            store, lambda: list(store.fetch_batches([]))
        )
        assert (loads, accesses, result) == ([], 0, [])
        assert store.fetch_many(()) == {}

    def test_values_past_int64_come_back_through_the_scalar_decoder(self, store):
        store.insert(3, {5, 2**63 + 1})
        store.insert(2**63 + 9, {1})
        (found, elements, offsets), = store.fetch_batches([2**63 + 9, 3, 4])
        assert found.tolist() == [3, 2**63 + 9]
        assert elements.tolist() == [5, 2**63 + 1, 1]
        assert offsets.tolist() == [0, 2, 3]

    def test_a_corrupt_record_raises_the_scalar_decoders_error(self, store):
        from repro.errors import SerializationError
        from repro.storage.relation_store import _chunk_key

        store.insert(1, {1, 2})
        store.insert(2, {3})
        store._tree.insert(_chunk_key(2, 0), b"\x02\x05\x01")  # 5 elements, 1 byte
        with pytest.raises(SerializationError, match="claims 5 elements"):
            list(store.fetch_batches([1, 2]))
        with pytest.raises(SerializationError, match="claims 5 elements"):
            store.fetch(2)


class TestFetchReadCounts:
    """The gate on the forward pass: candidates that lie close together
    cost what a scan costs, far-apart ones what a descent each costs."""

    @pytest.fixture()
    def relation(self):
        import random

        rng = random.Random(1)
        pool = BufferPool(InMemoryDiskManager(1024), capacity=256)
        rows = [
            (tid, frozenset(rng.sample(range(5_000), rng.randint(2, 25))))
            for tid in range(2_000)
        ]
        store = RelationStore.create_sorted(pool, rows, payload_size=20)
        assert store._tree.height() >= 3
        return store, dict(rows)

    def test_fetching_every_tid_reads_what_one_scan_reads(self, relation):
        store, rows = relation
        height = store._tree.height()
        scan_loads, scan_accesses, __ = count_reads(
            store, lambda: sum(1 for __ in store.scan_batches())
        )
        loads, accesses, fetched = count_reads(
            store, lambda: store.fetch_many(range(2_000))
        )
        assert fetched == rows
        assert len(loads) <= len(scan_loads) + height
        assert accesses <= scan_accesses + height
        assert len(set(loads)) == len(loads)  # no page decoded twice

    def test_fetching_every_hundredth_tid_reads_no_page_fetch_does_not(
        self, relation
    ):
        store, rows = relation
        height = store._tree.height()
        wanted = range(0, 2_000, 100)
        loads, __, fetched = count_reads(store, lambda: store.fetch_many(wanted))
        assert fetched == {tid: rows[tid] for tid in wanted}
        per_tid = [
            page for tid in wanted
            for page in count_reads(store, lambda: store.fetch(tid))[0]
        ]
        assert set(loads) <= set(per_tid)
        assert len(loads) <= len(per_tid)
        # A tuple ending its leaf pulls the next leaf in, as scan() does.
        assert len(loads) <= (height + 1) * len(wanted)


class TestTidBounds:
    """Every tid that can be stored can be fetched; a value that cannot be
    a tid is absent, not an OverflowError."""

    LARGEST = 2**64 - 1

    def test_the_largest_tid_round_trips(self, store):
        store.insert(self.LARGEST, [1], b"p")
        store.insert(self.LARGEST - 1, [2])
        assert store.fetch(self.LARGEST) == (frozenset({1}), b"p")
        assert store.fetch_set(self.LARGEST) == frozenset({1})
        assert self.LARGEST in store
        assert store.fetch_many([self.LARGEST, self.LARGEST - 1]) == {
            self.LARGEST - 1: frozenset({2}), self.LARGEST: frozenset({1}),
        }
        (found, __, __), = store.fetch_batches([self.LARGEST])
        assert found.tolist() == [self.LARGEST]

    @pytest.mark.parametrize("tid", [-1, -(2**70), 2**64, 2**64 + 5])
    def test_values_outside_the_tid_range_are_absent(self, store, tid):
        store.insert(0, [1])
        store.insert(self.LARGEST, [1])
        assert store.fetch(tid) is None
        assert store.fetch_set(tid) is None
        assert tid not in store
        assert store.fetch_many([tid, 0]) == {0: frozenset({1})}
        assert [found.tolist() for found, __, __ in store.fetch_batches([tid])] == []


# ----------------------------------------------------------------------
# Columnar relation pages: the load and the scan against the references
# ----------------------------------------------------------------------

def pool_image(pool):
    """Every page's bytes and every I/O counter of ``pool`` and its disk."""
    pool.flush_all()
    disk = pool.disk
    return (
        [disk.read_page(page) for page in range(disk.num_pages)],
        (pool.stats.hits, pool.stats.misses, pool.stats.evictions),
        (disk.stats.page_reads, disk.stats.page_writes),
    )


def edge_rows():
    """One relation of the load's edge cases: empty sets, sets of three or
    more chunks either side of a batch boundary, and tids and elements
    past int64 (the scalar encoder's batches) at the end."""
    import random

    from repro.storage.relation_store import BATCH_TUPLES

    rng = random.Random(8)
    rows = mixed_rows(3 * BATCH_TUPLES + 11, seed=3)
    for tid in (0, 5, BATCH_TUPLES + 1, 2 * BATCH_TUPLES):
        rows[tid] = (tid, frozenset())
    for tid in (2 * BATCH_TUPLES - 1, 2 * BATCH_TUPLES + 1):
        rows[tid] = (tid, frozenset(rng.sample(range(2**40), 1_500)))
    base = 2**63 - 3
    rows += [(base, {2**63 + 5, 1}), (base + 1, {3}), (2**64 - 2, set()),
             (2**64 - 1, {7, 2**64 - 1})]
    return rows


def leaf_counts(store):
    """The entry count of every leaf, along the chain."""
    return [int.from_bytes(page[1:3], "big") for page in store._tree._leaf_pages()]


class TestColumnarLoad:
    @pytest.mark.parametrize("page_size", [512, 1024, 4096])
    @pytest.mark.parametrize("payload_size", [0, 16, 100])
    def test_pages_and_io_match_the_reference_loader(self, page_size, payload_size):
        rows = edge_rows()
        images = []
        for load in (RelationStore.create_sorted, reference_create_sorted):
            pool = BufferPool(InMemoryDiskManager(page_size), capacity=12)
            load(pool, iter(rows), payload_size)
            images.append(pool_image(pool))
        assert images[0] == images[1]
        assert images[0][1][2] > 0  # the pool did evict

    @pytest.mark.parametrize("rows", [
        [], [(7, {1, 2})], [(0, set())], [(2**64 - 1, {2**63})],
        [(tid, set()) for tid in range(40)],
    ], ids=["empty", "one", "one-empty-set", "widest", "empty-sets"])
    def test_small_relations(self, rows):
        images = []
        for load in (RelationStore.create_sorted, reference_create_sorted):
            pool = BufferPool(InMemoryDiskManager(512), capacity=8)
            load(pool, rows, 16)
            images.append(pool_image(pool))
        assert images[0] == images[1]
        store = RelationStore.create_sorted(
            BufferPool(InMemoryDiskManager(512), capacity=8), rows, 16)
        assert len(store) == len(rows)
        assert scan_rows(store) == [(tid, frozenset(s)) for tid, s in rows]

    def test_a_leaf_filled_exactly_to_its_budget(self):
        # 1 024-byte pages: a budget of int((1008 - 11) * 0.9) = 897 bytes.
        # A tuple with tid < 128, n one-byte deltas and no payload is a
        # 3 + n byte record, a 17 + n byte entry: 30 of 29 and one of 27.
        cardinalities = [12] * 30 + [10]
        rows = [(tid, set(range(count)))
                for tid, count in enumerate(cardinalities * 2)]
        images = []
        for load in (RelationStore.create_sorted, reference_create_sorted):
            pool = BufferPool(InMemoryDiskManager(1024), capacity=8)
            load(pool, rows, 0)
            images.append(pool_image(pool))
        assert images[0] == images[1]
        store = RelationStore.create_sorted(
            BufferPool(InMemoryDiskManager(1024), capacity=8), rows, 0)
        assert leaf_counts(store) == [31, 31]
        leaf = np.frombuffer(next(store._tree._leaf_pages()), dtype=np.uint8)
        entries = parse_leaves(leaf, leaf.size)
        assert entries.value_starts[-1] + entries.value_lengths[-1] == 11 + 897


class TestRejectedLoads:
    """``create_sorted`` frees what it allocated before an error leaves it,
    so a long-lived pool (a shard's) strands nothing, and the next load
    takes the freed pages."""

    @staticmethod
    def rows(kind):
        rows = [(tid, {tid, tid + 1}) for tid in range(600)]
        if kind == "duplicate":
            rows.append((599, {1}))
        elif kind == "unsorted":
            rows.append((17, {1}))
        else:
            rows.append((600, {-4}))
        return rows

    @pytest.mark.parametrize("kind", ["duplicate", "unsorted", "bad-element"])
    def test_page_accounting_returns_to_its_start(self, kind):
        from repro.errors import BTreeError, SerializationError

        pool = BufferPool(InMemoryDiskManager(1024), capacity=16)
        resident = RelationStore.create_sorted(pool, [(1, {1}), (2, {2})])
        disk = pool.disk
        live, pages = disk.num_live_pages, disk.num_pages
        error = SerializationError if kind == "bad-element" else BTreeError
        with pytest.raises(error):
            RelationStore.create_sorted(pool, iter(self.rows(kind)))
        freed = disk.num_pages - pages
        assert disk.num_live_pages == live and freed > 2  # leaves were written
        assert disk.num_free_pages == freed
        store = RelationStore.create_sorted(pool, self.rows(kind)[:-1])
        assert disk.num_free_pages == 0
        assert disk.num_pages == pages + max(freed, disk.num_live_pages - live)
        assert len(store) == 600 and store.fetch_set(599) == frozenset({599, 600})
        assert scan_rows(resident) == [(1, frozenset({1})), (2, frozenset({2}))]


def random_store(pool, rows, build):
    """``rows`` stored one of three ways, then partly overwritten and
    partly deleted, so that some leaves are left empty; returns the store
    and the rows it holds."""
    import random

    rng = random.Random(12)
    if build == "create_sorted":
        store = RelationStore.create_sorted(pool, rows, 40)
    else:
        store = RelationStore.create(pool)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        if build == "bulk_load":
            store.bulk_load(shuffled, 40)
        else:
            for tid, elements in shuffled:
                store.insert(tid, elements, bytes(40))
    held = dict(rows)
    for tid in rng.sample(sorted(held), 60):
        held[tid] = frozenset(rng.sample(range(10**5), rng.choice([0, 2, 2_500])))
        store.insert(tid, held[tid], b"\xff" * 7)
    for tid in list(held)[300:420]:  # a run of tids: whole leaves go empty
        store._delete_chunks(tid)
        del held[tid]
    return store, sorted(held.items())


class TestColumnarScan:
    @pytest.mark.parametrize("build", ["create_sorted", "bulk_load", "inserts"])
    @pytest.mark.parametrize("group", [1, 2, 5, None])
    def test_batches_equal_scan_with_whole_batches(self, monkeypatch, build, group):
        from repro.storage import relation_store
        from repro.storage.relation_store import BATCH_TUPLES

        if group is not None:
            monkeypatch.setattr(relation_store, "SCAN_LEAVES", group)
        pool = BufferPool(InMemoryDiskManager(512), capacity=64)
        store, held = random_store(pool, mixed_rows(3 * BATCH_TUPLES + 30), build)
        assert 0 in leaf_counts(store)
        batched, sizes = batch_rows(store)
        assert batched == scan_rows(store) == held
        whole, rest = divmod(len(held), BATCH_TUPLES)
        assert sizes == [BATCH_TUPLES] * whole + [rest]

    def test_chunks_spanning_groups_and_leaves(self, monkeypatch):
        from repro.storage import relation_store

        monkeypatch.setattr(relation_store, "SCAN_LEAVES", 3)
        pool = BufferPool(InMemoryDiskManager(512), capacity=64)
        rows = edge_rows()
        store = RelationStore.create_sorted(pool, rows)
        batched, __ = batch_rows(store)
        assert batched == scan_rows(store) == [
            (tid, frozenset(elements)) for tid, elements in rows]

    @staticmethod
    def corrupted(pool, edit):
        """A small store whose second leaf went through ``edit(page)``."""
        store = RelationStore.create_sorted(
            pool, [(tid, set(range(tid % 9))) for tid in range(200)])
        leaf = list(store._tree._leaf_pages())[1]
        page_id = store._tree._leaf_for(None).next_leaf
        frame = pool.fetch(page_id)
        assert bytes(frame.data) == leaf
        edit(frame.data)
        pool.unpin(page_id, dirty=True)
        return store

    @pytest.mark.parametrize("name, match", [
        ("count past the entries", "truncated leaf entry"),
        ("count past the page", "claims 400 entries"),
        ("value past the page", "runs past its page"),
        ("key length", "chunk keys are 12 bytes"),
        ("varint cut by the page end", "truncated uvarint"),
        ("chain into an internal node", "not a leaf"),
    ])
    def test_a_corrupt_leaf_raises_serialization_error(self, name, match):
        from repro.errors import SerializationError

        pool = BufferPool(InMemoryDiskManager(512), capacity=64)
        payload = pool.disk.payload_size

        def edit(page):
            if name == "count past the entries":
                page[1:3] = (240).to_bytes(2, "big")
            elif name == "count past the page":
                page[1:3] = (400).to_bytes(2, "big")
            elif name == "value past the page":
                page[11 + 13:11 + 15] = b"\xff\x7f"  # the first value's length
            elif name == "key length":
                page[11] = 11
            elif name == "varint cut by the page end":
                # Two entries: a long first value, then a second entry
                # whose value length starts on the page's last byte.
                value = payload - 11 - 15 - len(b"\x0c" + bytes(12) + b"\x80")
                page[1:3] = (2).to_bytes(2, "big")
                page[11:] = (b"\x0c" + bytes(12) + bytes([0x80 | value & 0x7F,
                                                         value >> 7])
                             + bytes(value) + b"\x0c" + bytes(12) + b"\x80")
            else:
                page[0] = 0

        store = self.corrupted(pool, edit)
        with pytest.raises(SerializationError, match=match):
            list(store.scan_batches())
