"""Tests for the tid-keyed relation store and its one loader,
``RelationStore.create``: rows in any tid order, written bottom-up."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.storage.btree import parse_leaves
from repro.storage.buffer import BufferPool
from repro.storage.pager import InMemoryDiskManager
from repro.storage.relation_store import RelationStore


@pytest.fixture()
def pool():
    return BufferPool(InMemoryDiskManager(1024), capacity=64)


@pytest.fixture()
def store(pool):
    """An empty relation."""
    return RelationStore.create(pool, [], name="R")


@pytest.fixture()
def load(pool):
    """``RelationStore.create`` on the test's pool."""
    return lambda rows, payload_size=0: RelationStore.create(
        pool, rows, payload_size, "R")


def insert_tuple(store, tid, elements, payload=b""):
    """What the retired per-record writer did to a stored relation: drop
    ``tid``'s chunks, then insert its record chunk by chunk.  Only tests
    still build a relation's tree this way, to reach layouts the loader
    never writes (empty leaves, half-full splits)."""
    from repro.storage.relation_store import _chunk_key, _chunk_size
    from repro.storage.serialization import encode_tuple_record

    delete_tuple(store, tid)
    record = encode_tuple_record(tid, elements, payload)
    size = _chunk_size(store._tree.pool)
    for chunk, offset in enumerate(range(0, len(record), size)):
        store._tree.insert(_chunk_key(tid, chunk), record[offset : offset + size])


def delete_tuple(store, tid):
    from repro.storage.relation_store import _chunk_key

    chunk = 0
    while store._tree.delete(_chunk_key(tid, chunk)):
        chunk += 1


class TestRelationStore:
    def test_insert_and_fetch(self, load):
        store = load([(7, {1, 2, 3})], payload_size=7)
        assert store.fetch(7) == (frozenset({1, 2, 3}), bytes(7))
        assert store.fetch_set(7) == frozenset({1, 2, 3})

    def test_fetch_missing(self, store):
        assert store.fetch(1) is None
        assert store.fetch_set(1) is None

    def test_len_and_contains(self, pool, load):
        store = load([(2, {2}), (1, {9})])
        assert len(store) == 2
        assert 1 in store
        assert 3 not in store
        assert store.fetch_set(1) == frozenset({9})
        # A repeated tid is an error, not an overwrite: Relation.add's rule.
        with pytest.raises(ConfigurationError, match="duplicate tid 1 "):
            RelationStore.create(pool, [(1, {1}), (2, {2}), (1, {9})])

    def test_bulk_load_with_payload_size(self, load):
        store = load([(i, {i, i + 1}) for i in range(40)], payload_size=16)
        assert len(store) == 40
        __, payload = store.fetch(5)
        assert payload == bytes(16)

    def test_scan_in_tid_order(self, load):
        store = load((tid, {tid}) for tid in (30, 10, 20))
        assert [tid for tid, __, __ in store.scan()] == [10, 20, 30]
        assert list(store.tids()) == [10, 20, 30]

    def test_fetch_many_ignores_missing_and_dedups(self, load):
        store = load([(1, {1}), (2, {2})])
        result = store.fetch_many([2, 1, 2, 99])
        assert result == {1: frozenset({1}), 2: frozenset({2})}

    def test_reopen_by_meta_page(self, pool, load):
        store = load([(i, {i}) for i in range(20)])
        pool.flush_all()
        reopened = RelationStore(pool, store.meta_page_id, name="R2")
        assert len(reopened) == 20
        assert reopened.fetch_set(11) == frozenset({11})

    def test_create_sorted_bulk_load(self, pool):
        rows = [(tid, {tid, tid * 3}) for tid in range(200)]
        store = RelationStore.create(pool, rows, payload_size=8, name="bulk")
        assert store.name == "bulk"
        assert len(store) == 200
        assert store.fetch_set(77) == frozenset({77, 231})
        assert list(store.tids()) == list(range(200))
        __, payload = store.fetch(5)
        assert payload == bytes(8)

    def test_create_sorted_large_sets_chunked(self, load):
        rows = [(1, {9}), (0, set(range(0, 4000, 2)))]
        store = load(rows)
        assert store.fetch_set(0) == frozenset(range(0, 4000, 2))
        assert store.fetch_set(1) == frozenset({9})

    def test_create_sorted_rejects_unsorted(self, load):
        # The loader takes any tid order: what was once rejected is sorted.
        store = load([(5, {1}), (2, {1, 3}), (9, set())])
        assert scan_rows(store) == [
            (2, frozenset({1, 3})), (5, frozenset({1})), (9, frozenset())]

    def test_large_sets_roundtrip(self, load):
        elements = set(range(0, 5000, 7))
        store = load([(1, elements)], payload_size=100)
        assert store.fetch(1) == (frozenset(elements), bytes(100))


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


def reference_create_sorted(pool, tuples, payload_size, fill_fraction=1.0):
    """The loader of tid-ascending rows as it stood before the batch
    codec: one scalar ``encode_tuple_record`` per tuple, the same
    chunking, one bulk_create over ``(key, value)`` items
    (``tests/test_btree.py`` holds that to the per-item loader it
    replaced, page for page and fetch for fetch)."""
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

    return BTree.bulk_create(pool, entries(), fill_fraction)


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
        store = RelationStore.create(pool, rows[::-1], payload_size=16)
        batched, sizes = batch_rows(store)
        assert batched == scan_rows(store) == rows
        # Bounded batches, no tuple split across two of them.
        assert sizes == [BATCH_TUPLES, BATCH_TUPLES, 7]

    def test_scan_batches_on_an_empty_relation(self, pool, store):
        assert list(store.scan_batches()) == []
        assert list(RelationStore.create(pool, iter([])).scan_batches()) == []
        assert len(store) == 0 and list(store.tids()) == []

    def test_scan_batches_on_a_store_built_by_random_inserts(self, pool):
        import random

        rows = mixed_rows(300, seed=9)
        shuffled = rows[:]
        random.Random(2).shuffle(shuffled)
        store = RelationStore.create(pool, shuffled, 40)
        batched, __ = batch_rows(store)
        assert batched == scan_rows(store) == rows
        # The tree the per-record writer built from the same rows holds
        # the same tuples.
        inserted = RelationStore.create(
            BufferPool(InMemoryDiskManager(1024), capacity=64), [])
        for tid, elements in shuffled:
            insert_tuple(inserted, tid, elements, bytes(40))
        assert batch_rows(inserted)[0] == rows

    def test_scan_batches_reads_the_pages_scan_reads(self, pool):
        store = RelationStore.create(pool, mixed_rows(600))
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
        import random

        rows = mixed_rows(700)
        shuffled = rows[:]
        random.Random(6).shuffle(shuffled)
        pools = [BufferPool(InMemoryDiskManager(1024), capacity=64)
                 for __ in range(2)]
        RelationStore.create(pools[0], shuffled, payload_size)
        reference_create_sorted(pools[1], rows, payload_size)
        assert all_pages(pools[0]) == all_pages(pools[1])

    def test_bulk_load_writes_the_pages_per_tuple_inserts_wrote(self):
        """The retired per-record writer, given the same rows, held the
        same tuples in as many pages as the loader writes when the tids
        ascend (its splits filled each left page), more otherwise."""
        import random

        ascending = mixed_rows(520)
        shuffled = ascending[:]
        random.Random(4).shuffle(shuffled)
        for rows in (ascending, shuffled):
            pools = [BufferPool(InMemoryDiskManager(1024), capacity=64)
                     for __ in range(2)]
            loaded = RelationStore.create(pools[0], rows, payload_size=24)
            inserted = RelationStore.create(pools[1], [])
            for tid, elements in rows:
                insert_tuple(inserted, tid, elements, bytes(24))
            assert scan_rows(loaded) == scan_rows(inserted) == ascending
            assert len(loaded) == len(rows)
            pages = [pool.disk.num_pages for pool in pools]
            if rows is ascending:
                assert leaf_counts(loaded) == leaf_counts(inserted)
                assert pages[0] == pages[1]
            else:
                assert 0 < pages[0] < pages[1]

    def test_bulk_load_streams_its_input(self, pool):
        """No row outlives its batch: while the loader reads a batch, at
        most that batch and the one before it are alive."""
        import weakref

        from repro.storage.relation_store import BATCH_TUPLES

        class Elements(list):
            pass

        alive, peak = [0], [0]

        def freed():
            alive[0] -= 1

        def rows():
            for tid in range(5 * BATCH_TUPLES):
                elements = Elements([tid, tid + 1])
                alive[0] += 1
                weakref.finalize(elements, freed)
                peak[0] = max(peak[0], alive[0])
                yield 5 * BATCH_TUPLES - tid, elements
                del elements

        store = RelationStore.create(pool, rows())
        assert BATCH_TUPLES < peak[0] <= 2 * BATCH_TUPLES
        assert alive[0] == 0
        assert len(store) == 5 * BATCH_TUPLES
        assert store.fetch_set(1) == frozenset({5 * BATCH_TUPLES - 1,
                                                5 * BATCH_TUPLES})

    def test_database_file_and_wal_bytes_match_the_scalar_encoder(
        self, tmp_path, monkeypatch
    ):
        from repro.database import SetJoinDatabase
        from repro.storage import relation_store
        from repro.storage.serialization import encode_tuple_record

        def scalar_buffer(tids, elements, offsets, payload):
            flat, bounds = elements.tolist(), offsets.tolist()
            records = [encode_tuple_record(tid, flat[lo:hi], payload)
                       for tid, lo, hi in zip(tids.tolist(), bounds, bounds[1:])]
            lengths = [len(record) for record in records]
            return (np.frombuffer(b"".join(records), dtype=np.uint8),
                    np.concatenate(([0], np.cumsum(lengths))))

        rows = mixed_rows(600)[::-1]
        images = []
        for name, patched in (("batch", False), ("scalar", True)):
            if patched:
                monkeypatch.setattr(
                    relation_store, "encode_tuple_arrays", scalar_buffer
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
        store = RelationStore.create(pool, rows[::-1], payload_size)
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
            insert_tuple(store, tid, elements, b"\xff" * 40)
        insert_tuple(store, 7, {1, 2, 3}, b"\xff" * 40)  # fewer chunks
        rows[7] = (7, frozenset({1, 2, 3}))
        wanted = [tid for tid, __ in rows[::3]] + [301, 5000]
        fetched, __ = fetched_rows(store, wanted)
        assert fetched == rows[::3]

    def test_nothing_wanted_reads_nothing(self, pool):
        store = RelationStore.create(pool, mixed_rows(300))
        loads, accesses, result = count_reads(
            store, lambda: list(store.fetch_batches([]))
        )
        assert (loads, accesses, result) == ([], 0, [])
        assert store.fetch_many(()) == {}

    def test_values_past_int64_come_back_through_the_scalar_decoder(self, load):
        store = load([(2**63 + 9, {1}), (3, {5, 2**63 + 1})])
        (found, elements, offsets), = store.fetch_batches([2**63 + 9, 3, 4])
        assert found.tolist() == [3, 2**63 + 9]
        assert elements.tolist() == [5, 2**63 + 1, 1]
        assert offsets.tolist() == [0, 2, 3]

    def test_a_corrupt_record_raises_the_scalar_decoders_error(self, load):
        from repro.errors import SerializationError
        from repro.storage.relation_store import _chunk_key

        store = load([(1, {1, 2}), (2, {3})])
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
        store = RelationStore.create(pool, rows, payload_size=20)
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

    def test_the_largest_tid_round_trips(self, load):
        # Given out of order: the loader sorts tids past int64 as well.
        store = load([(self.LARGEST, [1]), (2**63 + 9, [4]), (0, [3]),
                      (self.LARGEST - 1, [2])], payload_size=1)
        assert list(store.tids()) == [0, 2**63 + 9, self.LARGEST - 1,
                                      self.LARGEST]
        assert store.fetch(self.LARGEST) == (frozenset({1}), b"\x00")
        assert store.fetch_set(self.LARGEST) == frozenset({1})
        assert store.fetch_set(0) == frozenset({3})
        assert store.fetch_set(2**63 + 9) == frozenset({4})
        assert self.LARGEST in store and 0 in store
        assert store.fetch_many([self.LARGEST, self.LARGEST - 1]) == {
            self.LARGEST - 1: frozenset({2}), self.LARGEST: frozenset({1}),
        }
        (found, __, __), = store.fetch_batches([self.LARGEST])
        assert found.tolist() == [self.LARGEST]

    @pytest.mark.parametrize("tid", [-1, -(2**70), 2**64, 2**64 + 5])
    def test_values_outside_the_tid_range_are_absent(self, load, tid):
        store = load([(self.LARGEST, [1]), (0, [1])])
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
        for load, given in ((RelationStore.create, rows[::-1]),
                            (reference_create_sorted, rows)):
            pool = BufferPool(InMemoryDiskManager(page_size), capacity=12)
            load(pool, iter(given), payload_size)
            images.append(pool_image(pool))
        assert images[0] == images[1]
        assert images[0][1][2] > 0  # the pool did evict

    @pytest.mark.parametrize("rows", [
        [], [(7, {1, 2})], [(0, set())], [(2**64 - 1, {2**63})],
        [(tid, set()) for tid in range(40)],
    ], ids=["empty", "one", "one-empty-set", "widest", "empty-sets"])
    def test_small_relations(self, rows):
        images = []
        for load in (RelationStore.create, reference_create_sorted):
            pool = BufferPool(InMemoryDiskManager(512), capacity=8)
            load(pool, rows, 16)
            images.append(pool_image(pool))
        assert images[0] == images[1]
        store = RelationStore.create(
            BufferPool(InMemoryDiskManager(512), capacity=8), rows, 16)
        assert len(store) == len(rows)
        assert scan_rows(store) == [(tid, frozenset(s)) for tid, s in rows]

    def test_a_leaf_filled_exactly_to_its_budget(self):
        # 1 024-byte pages: a budget of int((1008 - 11) * fill) bytes.  A
        # tuple with tid < 128, n one-byte deltas and no payload is a
        # 3 + n byte record, a 17 + n byte entry.
        for fill_fraction, cardinalities, budget in (
            (1.0, [12] * 33 + [23], 997),  # 33 entries of 29 and one of 40
            (0.9, [12] * 30 + [10], 897),  # the testbed's: 30 of 29, one of 27
        ):
            rows = [(tid, set(range(count)))
                    for tid, count in enumerate(cardinalities * 2)]
            images = []
            for load in (RelationStore.create, reference_create_sorted):
                pool = BufferPool(InMemoryDiskManager(1024), capacity=8)
                load(pool, rows, 0, fill_fraction=fill_fraction)
                images.append(pool_image(pool))
            assert images[0] == images[1]
            store = RelationStore.create(
                BufferPool(InMemoryDiskManager(1024), capacity=8), rows, 0,
                fill_fraction=fill_fraction)
            width = len(cardinalities)
            assert leaf_counts(store) == [width, width]
            leaf = np.frombuffer(next(store._tree._leaf_pages()), dtype=np.uint8)
            entries = parse_leaves(leaf, leaf.size)
            end = entries.value_starts[-1] + entries.value_lengths[-1]
            assert end == 11 + budget


class TestRejectedLoads:
    """A repeated tid or an unencodable row is rejected before the loader
    allocates a page, so a long-lived pool (a shard's) is left exactly as
    it was.  (A failure inside the B-tree build frees what it allocated:
    ``tests/test_btree.py``.)"""

    @staticmethod
    def rows(kind):
        rows = [(tid, {tid, tid + 1}) for tid in range(600)]
        if kind == "duplicate":
            rows.append((599, {1}))
        elif kind == "unsorted":
            rows.append((17, {1}))  # a duplicate far from its first copy
        else:
            rows.append((600, {-4}))
        return rows

    @pytest.mark.parametrize("kind", ["duplicate", "unsorted", "bad-element"])
    def test_page_accounting_returns_to_its_start(self, kind):
        pool = BufferPool(InMemoryDiskManager(1024), capacity=16)
        resident = RelationStore.create(pool, [(1, {1}), (2, {2})])
        disk = pool.disk
        live, pages = disk.num_live_pages, disk.num_pages
        writes = disk.stats.page_writes
        with pytest.raises(ConfigurationError):
            RelationStore.create(pool, iter(self.rows(kind)))
        assert (disk.num_live_pages, disk.num_pages) == (live, pages)
        assert disk.num_free_pages == 0 and disk.stats.page_writes == writes
        store = RelationStore.create(pool, self.rows(kind)[:-1])
        assert len(store) == 600 and store.fetch_set(599) == frozenset({599, 600})
        assert scan_rows(resident) == [(1, frozenset({1})), (2, frozenset({2}))]


def random_store(pool, rows, build):
    """``rows`` stored one of three ways — loaded in tid order, loaded
    shuffled, or inserted record by record — then, through the tree,
    partly overwritten and partly deleted, so that some leaves are left
    empty; returns the store and the rows it holds."""
    import random

    rng = random.Random(12)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    if build == "create_sorted":
        store = RelationStore.create(pool, rows, 40)
    elif build == "bulk_load":
        store = RelationStore.create(pool, shuffled, 40)
    else:
        store = RelationStore.create(pool, [])
        for tid, elements in shuffled:
            insert_tuple(store, tid, elements, bytes(40))
    held = dict(rows)
    for tid in rng.sample(sorted(held), 60):
        held[tid] = frozenset(rng.sample(range(10**5), rng.choice([0, 2, 2_500])))
        insert_tuple(store, tid, held[tid], b"\xff" * 7)
    for tid in list(held)[300:420]:  # a run of tids: whole leaves go empty
        delete_tuple(store, tid)
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
        store = RelationStore.create(pool, rows[::-1])
        batched, __ = batch_rows(store)
        assert batched == scan_rows(store) == [
            (tid, frozenset(elements)) for tid, elements in rows]

    @staticmethod
    def corrupted(pool, edit):
        """A small store whose second leaf went through ``edit(page)``."""
        store = RelationStore.create(
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


# ----------------------------------------------------------------------
# The one loader: any tid order, the pages of the tid-ordered load
# ----------------------------------------------------------------------

class TestAnyOrderLoad:
    @pytest.mark.parametrize("page_size", [512, 4096])
    def test_empty_relation_and_chunk_spanning_sets(self, page_size):
        import random

        from repro.storage.relation_store import _chunk_size

        rng = random.Random(page_size)
        pool = BufferPool(InMemoryDiskManager(page_size), capacity=16)
        empty = RelationStore.create(pool, iter(()))
        assert len(empty) == 0 and scan_rows(empty) == []
        assert empty.fetch(0) is None and list(empty.fetch_batches([0])) == []
        # Sets several chunks long (one 1-byte delta per element) among
        # small ones, shuffled.
        long = 3 * _chunk_size(pool)
        rows = [(tid, frozenset(range(tid, tid + (long if tid % 7 == 0 else 3))))
                for tid in range(60)]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        store = RelationStore.create(pool, shuffled, 10)
        assert scan_rows(store) == batch_rows(store)[0] == rows
        assert store.fetch(14) == (rows[14][1], bytes(10))
        reference = BufferPool(InMemoryDiskManager(page_size), capacity=16)
        reference_create_sorted(reference, [], 0)
        reference_create_sorted(reference, rows, 10)
        assert all_pages(pool) == all_pages(reference)

    def test_testbed_load_writes_the_pages_it_always_wrote(self):
        """``Testbed.load`` through the any-order loader writes the page
        images, and does the I/O, of the tid-ordered load it replaced
        (the digests were taken from that loader)."""
        import hashlib

        from repro.core.operator import Testbed
        from repro.data.workloads import case_study

        pinned = {
            512: (745, 747, "04ee331f619f6e2a0e16e9f95676d8f3"
                            "8174ec7998bf8bb0a9177765f9d3f091"),
            4096: (68, 70, "18274174afb65041b4974eb07b2861fe"
                           "6929ffc949524940380a44dd7192de65"),
        }
        for page_size, (pages, writes, digest) in pinned.items():
            lhs, rhs = case_study(scale=0.05, seed=7).materialize()
            testbed = Testbed(page_size=page_size, buffer_pages=16)
            testbed.load(lhs, rhs)
            disk = testbed.disk
            assert (disk.num_pages, disk.stats.page_writes) == (pages, writes)
            image = b"".join(disk.read_page(page) for page in range(pages))
            assert hashlib.sha256(image).hexdigest() == digest
