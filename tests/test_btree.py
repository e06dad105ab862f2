"""Tests for the paged B+tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BTreeError
from repro.storage.btree import BTree
from repro.storage.buffer import BufferPool
from repro.storage.pager import InMemoryDiskManager


def make_tree(page_size=512, capacity=32):
    disk = InMemoryDiskManager(page_size)
    pool = BufferPool(disk, capacity=capacity)
    return disk, pool, BTree.create(pool)


def key_of(value: int) -> bytes:
    return value.to_bytes(8, "big")


class TestBasics:
    def test_empty_tree(self):
        __, __, tree = make_tree()
        assert tree.get(b"missing") is None
        assert len(tree) == 0
        assert list(tree.items()) == []
        assert tree.height() == 1

    def test_insert_get(self):
        __, __, tree = make_tree()
        tree.insert(b"alpha", b"1")
        tree.insert(b"beta", b"2")
        assert tree.get(b"alpha") == b"1"
        assert tree.get(b"beta") == b"2"
        assert b"alpha" in tree
        assert b"gamma" not in tree

    def test_overwrite(self):
        __, __, tree = make_tree()
        tree.insert(b"k", b"old")
        tree.insert(b"k", b"new")
        assert tree.get(b"k") == b"new"
        assert len(tree) == 1

    def test_delete(self):
        __, __, tree = make_tree()
        tree.insert(b"k", b"v")
        assert tree.delete(b"k") is True
        assert tree.delete(b"k") is False
        assert tree.get(b"k") is None

    def test_ordered_iteration(self):
        __, __, tree = make_tree()
        for value in [5, 3, 9, 1, 7]:
            tree.insert(key_of(value), str(value).encode())
        assert [int.from_bytes(k, "big") for k, __ in tree.items()] == [1, 3, 5, 7, 9]

    def test_range_scan(self):
        __, __, tree = make_tree()
        for value in range(20):
            tree.insert(key_of(value), b"")
        keys = [int.from_bytes(k, "big") for k, __ in tree.scan(key_of(5), key_of(15))]
        assert keys == list(range(5, 15))

    def test_scan_open_bounds(self):
        __, __, tree = make_tree()
        for value in range(10):
            tree.insert(key_of(value), b"")
        assert len(list(tree.scan())) == 10
        assert len(list(tree.scan(start_key=key_of(7)))) == 3
        assert len(list(tree.scan(end_key=key_of(3)))) == 3

    def test_oversized_entry_rejected(self):
        __, __, tree = make_tree(page_size=256)
        with pytest.raises(BTreeError):
            tree.insert(b"k", bytes(500))


class TestSplits:
    def test_grows_beyond_one_page(self):
        __, __, tree = make_tree(page_size=256)
        for value in range(200):
            tree.insert(key_of(value), b"v" * 10)
        assert tree.height() >= 2
        assert len(tree) == 200
        assert [int.from_bytes(k, "big") for k, __ in tree.items()] == list(range(200))

    def test_reverse_insertion_order(self):
        __, __, tree = make_tree(page_size=256)
        for value in reversed(range(200)):
            tree.insert(key_of(value), b"v" * 10)
        assert [int.from_bytes(k, "big") for k, __ in tree.items()] == list(range(200))

    def test_mixed_value_sizes_split_by_bytes(self):
        """Regression: variable-size values (large portions next to small
        entries) must split by byte budget, not entry count."""
        __, __, tree = make_tree(page_size=512, capacity=64)
        rng = random.Random(3)
        reference = {}
        for step in range(400):
            key = key_of(rng.randrange(100))
            value = bytes(rng.randrange(0, 200))
            tree.insert(key, value)
            reference[key] = value
        assert list(tree.items()) == sorted(reference.items())

    def test_multiway_split_with_large_values(self):
        __, __, tree = make_tree(page_size=512)
        # Each value is near the per-entry limit; one leaf holds ~2 entries.
        big = (512 - 27) // 2 - 32
        for value in range(30):
            tree.insert(key_of(value), bytes(big))
        assert len(tree) == 30

    def test_leaf_chain_intact_after_splits(self):
        disk, pool, tree = make_tree(page_size=256)
        for value in range(300):
            tree.insert(key_of(value), b"x" * 8)
        # A full scan must visit every key exactly once, in order.
        seen = [int.from_bytes(k, "big") for k, __ in tree.items()]
        assert seen == list(range(300))


class TestPersistence:
    def test_reopen_from_meta_page(self):
        disk, pool, tree = make_tree()
        for value in range(50):
            tree.insert(key_of(value), str(value).encode())
        pool.flush_all()
        reopened = BTree(pool, tree.meta_page_id)
        assert reopened.get(key_of(25)) == b"25"
        assert len(reopened) == 50

    def test_two_trees_share_pool(self):
        disk = InMemoryDiskManager(512)
        pool = BufferPool(disk, capacity=32)
        first = BTree.create(pool)
        second = BTree.create(pool)
        first.insert(b"k", b"first")
        second.insert(b"k", b"second")
        assert first.get(b"k") == b"first"
        assert second.get(b"k") == b"second"

    def test_tiny_buffer_pool_still_correct(self):
        disk = InMemoryDiskManager(256)
        pool = BufferPool(disk, capacity=3)
        tree = BTree.create(pool)
        for value in range(150):
            tree.insert(key_of(value), b"v" * 12)
        assert [int.from_bytes(k, "big") for k, __ in tree.items()] == list(range(150))
        assert pool.stats.evictions > 0


class TestBulkCreate:
    def test_matches_inserted_tree(self):
        disk = InMemoryDiskManager(512)
        pool = BufferPool(disk, capacity=32)
        items = [(key_of(v), str(v).encode()) for v in range(500)]
        bulk = BTree.bulk_create(pool, items)
        inserted = BTree.create(pool)
        for key, value in items:
            inserted.insert(key, value)
        assert list(bulk.items()) == list(inserted.items())
        assert bulk.get(key_of(123)) == b"123"

    def test_empty_input(self):
        __, pool, __tree = make_tree()
        bulk = BTree.bulk_create(pool, [])
        assert list(bulk.items()) == []
        assert bulk.get(b"x") is None

    def test_single_item(self):
        __, pool, __tree = make_tree()
        bulk = BTree.bulk_create(pool, [(b"k", b"v")])
        assert bulk.get(b"k") == b"v"

    def test_unsorted_rejected(self):
        __, pool, __tree = make_tree()
        with pytest.raises(BTreeError):
            BTree.bulk_create(pool, [(b"b", b""), (b"a", b"")])
        with pytest.raises(BTreeError):
            BTree.bulk_create(pool, [(b"a", b""), (b"a", b"")])

    def test_bad_fill_fraction(self):
        __, pool, __tree = make_tree()
        with pytest.raises(BTreeError):
            BTree.bulk_create(pool, [], fill_fraction=0.0)

    def test_bulk_tree_is_compact(self):
        """Bulk loading packs pages fuller than random-order insertion
        (ascending insertion is already near-optimal thanks to the greedy
        multi-way split, so the comparison uses shuffled inserts)."""
        items = [(key_of(v), bytes(16)) for v in range(2000)]
        disk_a = InMemoryDiskManager(512)
        BTree.bulk_create(BufferPool(disk_a, capacity=64), items)
        shuffled = list(items)
        random.Random(5).shuffle(shuffled)
        disk_b = InMemoryDiskManager(512)
        inserted = BTree.create(BufferPool(disk_b, capacity=64))
        for key, value in shuffled:
            inserted.insert(key, value)
        assert disk_a.num_pages < disk_b.num_pages

    def test_mutable_after_bulk_load(self):
        __, pool, __tree = make_tree()
        bulk = BTree.bulk_create(
            pool, [(key_of(v), b"x") for v in range(0, 100, 2)]
        )
        bulk.insert(key_of(51), b"new")
        assert bulk.get(key_of(51)) == b"new"
        assert bulk.delete(key_of(50))
        assert len(list(bulk.items())) == 50

    def test_supports_generator_input(self):
        __, pool, __tree = make_tree()
        bulk = BTree.bulk_create(
            pool, ((key_of(v), b"") for v in range(100))
        )
        assert len(list(bulk.items())) == 100


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "get"]),
            st.integers(min_value=0, max_value=400),
            st.binary(max_size=64),
        ),
        max_size=300,
    )
)
def test_btree_matches_dict_reference(operations):
    """Property: under random op sequences the tree behaves as a sorted dict."""
    __, __, tree = make_tree(page_size=256, capacity=16)
    reference: dict[bytes, bytes] = {}
    for op, raw_key, value in operations:
        key = key_of(raw_key)
        if op == "insert":
            tree.insert(key, value)
            reference[key] = value
        elif op == "delete":
            assert tree.delete(key) == (key in reference)
            reference.pop(key, None)
        else:
            assert tree.get(key) == reference.get(key)
    assert list(tree.items()) == sorted(reference.items())


# ----------------------------------------------------------------------
# The node codec against the implementation it replaced
# ----------------------------------------------------------------------

from repro.storage import btree as btree_module  # noqa: E402
from repro.storage.serialization import decode_uvarint, encode_uvarint  # noqa: E402


class ReferenceBTree(BTree):
    """The node codec and the size sums as they stood before the
    length-prefix helpers: one ``encode_uvarint``/``decode_uvarint`` call
    per key and per value.  Kept verbatim as the oracle for page bytes,
    split points and promotions."""

    @staticmethod
    def _encoded_size(node) -> int:
        size = btree_module._HEADER_SIZE
        if node.is_leaf:
            for key, value in zip(node.keys, node.values):
                size += len(encode_uvarint(len(key))) + len(key)
                size += len(encode_uvarint(len(value))) + len(value)
        else:
            size += 8
            for key in node.keys:
                size += len(encode_uvarint(len(key))) + len(key) + 8
        return size

    def _load_node(self, page_id):
        frame = self.pool.fetch(page_id)
        data = bytes(frame.data)
        self.pool.unpin(page_id)
        count = int.from_bytes(data[1:3], "big")
        node = btree_module._Node(page_id, is_leaf=(data[0] == 1))
        pos = btree_module._HEADER_SIZE
        if node.is_leaf:
            next_ref = int.from_bytes(data[3:11], "big")
            node.next_leaf = None if next_ref == 0 else next_ref - 1
            for _ in range(count):
                klen, pos = decode_uvarint(data, pos)
                node.keys.append(data[pos : pos + klen])
                pos += klen
                vlen, pos = decode_uvarint(data, pos)
                node.values.append(data[pos : pos + vlen])
                pos += vlen
        else:
            node.children.append(int.from_bytes(data[pos : pos + 8], "big"))
            pos += 8
            for _ in range(count):
                klen, pos = decode_uvarint(data, pos)
                node.keys.append(data[pos : pos + klen])
                pos += klen
                node.children.append(int.from_bytes(data[pos : pos + 8], "big"))
                pos += 8
        return node

    def _store_node(self, node):
        capacity = self.pool.disk.payload_size
        out = bytearray()
        out.append(1 if node.is_leaf else 0)
        out += len(node.keys).to_bytes(2, "big")
        if node.is_leaf:
            next_ref = 0 if node.next_leaf is None else node.next_leaf + 1
            out += next_ref.to_bytes(8, "big")
            for key, value in zip(node.keys, node.values):
                out += encode_uvarint(len(key))
                out += key
                out += encode_uvarint(len(value))
                out += value
        else:
            out += bytes(8)
            out += node.children[0].to_bytes(8, "big")
            for key, child in zip(node.keys, node.children[1:]):
                out += encode_uvarint(len(key))
                out += key
                out += child.to_bytes(8, "big")
        if len(out) > capacity:
            raise BTreeError("node does not fit its page")
        frame = self.pool.fetch(node.page_id)
        frame.data[: len(out)] = out
        frame.data[len(out) :] = bytes(capacity - len(out))
        self.pool.unpin(node.page_id, dirty=True)

    def _store_or_split(self, node):
        if self._encoded_size(node) <= self.pool.disk.payload_size:
            self._store_node(node)
            return []
        if node.is_leaf:
            return self._split_leaf(node)
        return self._split_internal(node)

    def _split_leaf(self, node):
        budget = self.pool.disk.payload_size - btree_module._HEADER_SIZE
        chunks, keys, values, used = [], [], [], 0
        for key, value in zip(node.keys, node.values):
            size = (
                len(encode_uvarint(len(key))) + len(key)
                + len(encode_uvarint(len(value))) + len(value)
            )
            if keys and used + size > budget:
                chunks.append((keys, values))
                keys, values, used = [], [], 0
            keys.append(key)
            values.append(value)
            used += size
        chunks.append((keys, values))
        tail = node.next_leaf
        new_nodes = [self._new_node(is_leaf=True) for __ in chunks[1:]]
        node.keys, node.values = chunks[0]
        siblings = [node] + new_nodes
        for left, right in zip(siblings, siblings[1:]):
            left.next_leaf = right.page_id
        siblings[-1].next_leaf = tail
        promotions = []
        for fresh, (chunk_keys, chunk_values) in zip(new_nodes, chunks[1:]):
            fresh.keys, fresh.values = chunk_keys, chunk_values
            promotions.append((bytes(chunk_keys[0]), fresh.page_id))
        for sibling in siblings:
            self._store_node(sibling)
        return promotions

    def _split_internal(self, node):
        budget = self.pool.disk.payload_size - btree_module._HEADER_SIZE - 8
        pairs = list(zip(node.keys, node.children[1:]))
        chunks, first_child, current, used, cut_keys = [], node.children[0], [], 0, []
        for key, child in pairs:
            size = len(encode_uvarint(len(key))) + len(key) + 8
            if current and used + size > budget:
                chunks.append((first_child, current))
                cut_keys.append(bytes(key))
                first_child = child
                current, used = [], 0
                continue
            current.append((key, child))
            used += size
        chunks.append((first_child, current))
        new_nodes = [self._new_node(is_leaf=False) for __ in chunks[1:]]
        child0, first_pairs = chunks[0]
        node.keys = [key for key, __ in first_pairs]
        node.children = [child0] + [child for __, child in first_pairs]
        promotions = []
        for fresh, cut_key, (chunk_child0, chunk_pairs) in zip(
            new_nodes, cut_keys, chunks[1:]
        ):
            fresh.keys = [key for key, __ in chunk_pairs]
            fresh.children = [chunk_child0] + [c for __, c in chunk_pairs]
            promotions.append((cut_key, fresh.page_id))
        for fresh in [node] + new_nodes:
            self._store_node(fresh)
        return promotions


def random_node(rng, tree, is_leaf, page_size):
    """A node of random fill — comfortably small to several pages' worth —
    with key and value lengths on both sides of the one-byte varint limit."""
    node = tree._new_node(is_leaf=is_leaf)
    target = rng.choice([0, 40, page_size // 2, page_size - 30, page_size,
                         2 * page_size, 5 * page_size])
    limit = (page_size - 16 - 11 - 16) // 2 - 10
    size = 0
    while size < target or not node.keys and target:
        key = rng.randbytes(rng.choice([1, 8, 12, 127, 128, 130]))
        if is_leaf:
            room = max(0, limit - len(key))
            value = rng.randbytes(min(room, rng.choice([0, 5, 127, 128, 300, room])))
            node.values.append(value)
            size += len(value)
        else:
            node.children.append(rng.randrange(2**40))
        node.keys.append(key)
        size += len(key) + 9
    node.keys.sort()
    if is_leaf:
        node.next_leaf = rng.choice([None, 0, rng.randrange(2**40)])
    else:
        node.children.append(rng.randrange(2**40))
    return node


class TestNodeCodecAgainstReference:
    @pytest.mark.parametrize("page_size", [512, 4096])
    @pytest.mark.parametrize("is_leaf", [True, False], ids=["leaf", "internal"])
    def test_page_bytes_and_promotions_of_random_nodes(self, page_size, is_leaf):
        rng = random.Random(page_size + is_leaf)
        split_counts = set()
        for __ in range(60):
            sides = []
            seed = rng.randrange(2**32)
            for cls in (BTree, ReferenceBTree):
                disk = InMemoryDiskManager(page_size)
                pool = BufferPool(disk, capacity=64)
                tree = cls(pool, BTree.create(pool).meta_page_id)
                node = random_node(random.Random(seed), tree, is_leaf,
                                   disk.payload_size)
                promotions = tree._store_or_split(node)
                pool.flush_all()
                pages = [disk.read_page(page) for page in range(disk.num_pages)]
                loaded = [
                    (n.is_leaf, n.keys, n.values, n.children, n.next_leaf)
                    for n in (tree._load_node(page)
                              for page in range(2, disk.num_pages))
                ]
                sides.append((promotions, pages, loaded))
            assert sides[0] == sides[1]
            split_counts.add(len(sides[0][0]))
        # Nodes that fit, nodes that split in two, and multi-way splits.
        assert {0, 1} <= split_counts and max(split_counts) >= 3

    def test_insert_built_trees_are_page_identical(self):
        rng = random.Random(11)
        items = [
            (rng.randbytes(rng.choice([4, 8, 12])),
             rng.randbytes(rng.choice([0, 20, 127, 128, 200])))
            for __ in range(800)
        ]
        pages = []
        for cls in (BTree, ReferenceBTree):
            disk = InMemoryDiskManager(512)
            pool = BufferPool(disk, capacity=16)
            tree = cls(pool, BTree.create(pool).meta_page_id)
            for key, value in items:
                tree.insert(key, value)
            for key, __ in items[::7]:
                tree.delete(key)
            pool.flush_all()
            pages.append([disk.read_page(page) for page in range(disk.num_pages)])
        assert pages[0] == pages[1]

    def test_bulk_create_packs_the_leaves_the_reference_sizes_pack(self):
        # bulk_create's size sums go through the same helpers; a tree of
        # mixed entry sizes must cut its leaves where summing
        # len(encode_uvarint(...)) per entry would.
        rng = random.Random(3)
        items = sorted({
            rng.randbytes(8): rng.randbytes(rng.choice([1, 126, 127, 128, 129, 190]))
            for __ in range(500)
        }.items())
        __, pool, __ = make_tree(page_size=1024)
        tree = BTree.bulk_create(pool, items)
        budget = int((pool.disk.payload_size - 11) * 0.9)
        expected, used, first = [], 0, True
        for key, value in items:
            size = (len(encode_uvarint(len(key))) + len(key)
                    + len(encode_uvarint(len(value))) + len(value))
            if not first and used + size > budget:
                expected.append(key)
                used = 0
            first = False
            used += size
        leaf = tree._load_node(tree._root_id)
        while not leaf.is_leaf:
            leaf = tree._load_node(leaf.children[0])
        starts = []
        while leaf.next_leaf is not None:
            leaf = tree._load_node(leaf.next_leaf)
            starts.append(leaf.keys[0])
        assert starts == expected and len(starts) > 20

    def test_truncated_node_raises_serialization_error(self):
        from repro.errors import SerializationError

        disk, pool, tree = make_tree(page_size=512)
        frame = pool.fetch(tree._root_id)
        # A leaf claiming more entries than the page holds.
        frame.data[:] = b"\x01\xff\xff" + bytes(8) + b"\x01" * (
            disk.payload_size - 11)
        pool.unpin(tree._root_id, dirty=True)
        with pytest.raises(SerializationError):
            tree._load_node(tree._root_id)


# ----------------------------------------------------------------------
# The sorted-range cursor against one scan per range
# ----------------------------------------------------------------------


def count_loads(tree, walk):
    """``_load_node`` calls and buffer accesses (hits + misses) of ``walk()``."""
    loads = []
    original = tree._load_node
    tree._load_node = lambda page: loads.append(page) or original(page)
    before = tree.pool.stats.snapshot()
    try:
        result = walk()
    finally:
        del tree._load_node
    delta = tree.pool.stats.delta(before)
    return result, loads, delta.hits + delta.misses


def scanned(tree, bounds):
    return [[value for __, value in tree.scan(lo, hi)] for lo, hi in bounds]


def leaves_of(tree):
    leaf = tree._leaf_for(None)
    leaves = [leaf]
    while leaf.next_leaf is not None:
        leaf = tree._load_node(leaf.next_leaf)
        leaves.append(leaf)
    return leaves


def ascending_bounds(cuts):
    """Disjoint ascending ranges from sorted cut points: consecutive cuts
    pair up, so ranges are adjacent, apart or (equal cuts) empty."""
    return [(key_of(lo), key_of(hi)) for lo, hi in zip(cuts[::2], cuts[1::2])]


class TestScanRanges:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sets(st.integers(0, 400), max_size=150),
        st.lists(st.integers(0, 420), max_size=24).map(sorted),
        st.sets(st.integers(0, 400)),
        st.booleans(),
    )
    def test_matches_a_scan_per_range(self, present, cuts, deleted, bulk):
        __, pool, tree = make_tree(page_size=256)
        items = [(key_of(value), b"v%d" % value) for value in sorted(present)]
        if bulk:
            tree = BTree.bulk_create(pool, items)
        else:
            random.Random(len(items)).shuffle(items)
            for key, value in items:
                tree.insert(key, value)
        for value in deleted:
            tree.delete(key_of(value))
        bounds = ascending_bounds(cuts)
        assert list(tree.scan_ranges(bounds)) == scanned(tree, bounds)
        open_ended = [(None, key_of(7)), (key_of(7), key_of(90)), (key_of(95), None)]
        assert list(tree.scan_ranges(open_ended)) == scanned(tree, open_ended)

    def test_empty_tree_and_single_leaf_root(self):
        __, __, tree = make_tree()
        bounds = ascending_bounds([0, 5, 5, 9, 20, 20])
        assert list(tree.scan_ranges(bounds)) == [[], [], []]
        assert list(tree.scan_ranges([])) == []
        for value in (1, 5, 6, 8):
            tree.insert(key_of(value), b"%d" % value)
        assert tree.height() == 1
        assert list(tree.scan_ranges(bounds)) == [[b"1"], [b"5", b"6", b"8"], []]

    def test_leaves_emptied_by_deletes_are_walked_past(self):
        __, pool, __ = make_tree(page_size=256)
        tree = BTree.bulk_create(
            pool, [(key_of(value), b"%d" % value) for value in range(300)]
        )
        leaves = leaves_of(tree)
        assert len(leaves) > 8
        # Empty the second, third and last leaves whole.
        for leaf in (leaves[1], leaves[2], leaves[-1]):
            for key in leaf.keys:
                assert tree.delete(key)
        first, fourth = leaves[0].keys, leaves[3].keys
        bounds = [
            (first[-1], leaves[1].keys[0]),     # ends where the hole starts
            (leaves[1].keys[1], leaves[2].keys[1]),  # wholly inside the hole
            (leaves[2].keys[1], fourth[1]),     # out of the hole
            (fourth[1], leaves[-1].keys[0]),    # up to the emptied last leaf
            (leaves[-1].keys[0], None),         # into it
        ]
        assert list(tree.scan_ranges(bounds)) == scanned(tree, bounds)
        assert list(tree.scan_ranges(bounds))[1] == []

    def test_one_range_over_many_leaves_and_many_ranges_in_one_leaf(self):
        __, pool, __ = make_tree(page_size=256)
        tree = BTree.bulk_create(
            pool, [(key_of(value), b"%d" % value) for value in range(0, 600, 2)]
        )
        leaves = leaves_of(tree)
        wide = [(leaves[1].keys[1], leaves[5].keys[2])]
        (values,), loads, __ = count_loads(tree, lambda: list(tree.scan_ranges(wide)))
        assert [values] == scanned(tree, wide)
        assert len(loads) == tree.height() + 4  # one descent, four leaves on
        # Adjacent and separated ranges inside one leaf, odd (absent) bounds,
        # the leaf's last key both as an end and as a start.
        keys = [int.from_bytes(key, "big") for key in leaves[2].keys]
        narrow = ascending_bounds([
            keys[0], keys[1], keys[1], keys[3], keys[3] + 1, keys[4] + 1,
            keys[-2], keys[-1], keys[-1], keys[-1] + 1,
        ])
        result, loads, __ = count_loads(tree, lambda: list(tree.scan_ranges(narrow)))
        assert result == scanned(tree, narrow)
        assert result[-1] == [b"%d" % keys[-1]]
        # The last range ends past the leaf's last key, which reads the
        # next leaf exactly as scan() does.
        assert len(loads) == tree.height() + 1

    def test_dense_ranges_cost_a_scan_and_sparse_ones_a_descent_each(self):
        __, pool, __ = make_tree(page_size=256, capacity=64)
        tree = BTree.bulk_create(
            pool, [(key_of(value), b"%d" % value) for value in range(900)]
        )
        height = tree.height()
        assert height >= 3
        __, scan_loads, scan_accesses = count_loads(tree, lambda: list(tree.scan()))
        every = [(key_of(value), key_of(value + 1)) for value in range(900)]
        result, loads, accesses = count_loads(
            tree, lambda: list(tree.scan_ranges(every))
        )
        assert result == [[b"%d" % value] for value in range(900)]
        assert loads == scan_loads and accesses == scan_accesses
        sparse = every[::100]
        result, loads, __ = count_loads(tree, lambda: list(tree.scan_ranges(sparse)))
        assert result == scanned(tree, sparse)
        per_range = [
            page for lo, hi in sparse
            for page in count_loads(tree, lambda: list(tree.scan(lo, hi)))[1]
        ]
        assert len(loads) <= len(per_range) and set(loads) <= set(per_range)
        # Past the last key nothing is read at all.
        beyond = [(key_of(value), key_of(value + 1)) for value in (899, 950, 990)]
        result, loads, __ = count_loads(tree, lambda: list(tree.scan_ranges(beyond)))
        assert result == [[b"899"], [], []] and len(loads) == height

    def test_ranges_out_of_order_are_refused(self):
        __, __, tree = make_tree()
        for bounds in (
            [(key_of(5), key_of(9)), (key_of(8), key_of(12))],
            [(key_of(5), None), (key_of(8), key_of(12))],
            [(key_of(5), key_of(9)), (None, key_of(12))],
        ):
            with pytest.raises(BTreeError, match="ascending"):
                list(tree.scan_ranges(bounds))


class TestInternalNodeStrideDecode:
    """Internal nodes of fixed-width keys decode by stride; they and every
    page the stride cannot vouch for must load as the per-key loop loads."""

    @staticmethod
    def load_both(page_size, data):
        loaded = []
        for cls in (BTree, ReferenceBTree):
            disk = InMemoryDiskManager(page_size)
            pool = BufferPool(disk, capacity=8)
            tree = cls(pool, BTree.create(pool).meta_page_id)
            frame = pool.fetch(tree._root_id)
            frame.data[:] = data.ljust(disk.payload_size, b"\x00")
            pool.unpin(tree._root_id, dirty=True)
            try:
                node = tree._load_node(tree._root_id)
                loaded.append((node.is_leaf, node.keys, node.children,
                               node.values, node.next_leaf))
            except Exception as error:  # noqa: BLE001 - compared below
                loaded.append((type(error), str(error)))
        return loaded

    @staticmethod
    def internal_page(keys, children):
        out = b"\x00" + len(keys).to_bytes(2, "big") + bytes(8)
        out += children[0].to_bytes(8, "big")
        for key, child in zip(keys, children[1:]):
            out += encode_uvarint(len(key)) + key + child.to_bytes(8, "big")
        return out

    @pytest.mark.parametrize("width", [0, 1, 8, 12, 16, 127])
    @pytest.mark.parametrize("count", [0, 1, 2, 25])
    def test_fixed_width_nodes_load_as_the_loop_loads_them(self, width, count):
        rng = random.Random(width * 31 + count)
        keys = sorted(rng.randbytes(width) for __ in range(count))
        children = [rng.randrange(2**63) for __ in range(count + 1)]
        mine, reference = self.load_both(
            4096, self.internal_page(keys, children)
        )
        assert mine == reference == (False, keys, children, [], None)

    def test_pages_the_stride_cannot_vouch_for_take_the_loop(self):
        rng = random.Random(9)
        children = [rng.randrange(2**40) for __ in range(9)]
        uniform = [rng.randbytes(12) for __ in range(8)]
        page = self.internal_page(uniform, children)
        cases = {
            "mixed": self.internal_page(uniform[:4] + [b"abc"] + uniform[5:], children),
            "wide": self.internal_page([rng.randbytes(130)] * 3, children[:4]),
            # The header claims more entries than the page can hold.
            "overrun": page[:1] + (400).to_bytes(2, "big") + page[3:],
            # A prefix that stops matching half-way through the node.
            "broken": page[:19 + 21 * 4] + b"\x0b" + page[20 + 21 * 4:],
        }
        # The last entry's length byte is on the page, its key is not.
        payload = InMemoryDiskManager(512).payload_size
        count = (payload - 19) // 21 + 1
        assert (payload - 19) % 21 >= 1
        cases["cut"] = self.internal_page(
            [rng.randbytes(12) for __ in range(count)],
            [rng.randrange(2**40) for __ in range(count + 1)],
        )[:payload]
        for name, data in cases.items():
            mine, reference = self.load_both(512, data)
            assert mine == reference, name
        assert self.load_both(512, cases["overrun"])[0][0].__name__ == (
            "SerializationError"
        )


# ----------------------------------------------------------------------
# An insert re-encodes only the nodes it changed
# ----------------------------------------------------------------------

from bisect import bisect_left, bisect_right  # noqa: E402


class OldInsertBTree(BTree):
    """The insert loop as it stood before it skipped unchanged ancestors:
    every node on the path is re-encoded and dirtied.  Kept verbatim as
    the oracle for page bytes and buffer accesses."""

    def _insert_into(self, page_id, key, value):
        node = self._load_node(page_id)
        if node.is_leaf:
            index = bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.values[index] = value
            else:
                node.keys.insert(index, key)
                node.values.insert(index, value)
            return self._store_or_split(node)
        index = bisect_right(node.keys, key)
        promotions = self._insert_into(node.children[index], key, value)
        node.keys[index:index] = [separator for separator, __ in promotions]
        node.children[index + 1 : index + 1] = [
            page_id for __, page_id in promotions
        ]
        return self._store_or_split(node)


class TestInsertDirtiesOnlyWhatChanged:
    def test_non_splitting_inserts_dirty_only_their_leaves(self):
        disk, pool, tree = make_tree(page_size=512, capacity=4096)
        rng = random.Random(5)
        keys = [key_of(value) for value in rng.sample(range(10**6), 200)]
        for key in keys:
            tree.insert(key, b"v" * 20)
        assert tree.height() == 3
        pool.flush_all()
        leaves = set()
        for key in rng.sample(keys, 30):
            tree.insert(key, b"w" * 20)  # same size: no leaf splits
            leaves.add(tree._leaf_for(key).page_id)
        dirty = {page for page, frame in pool._frames.items() if frame.dirty}
        assert dirty == leaves and len(leaves) > 5
        writes = disk.stats.page_writes
        pool.flush_all()
        assert disk.stats.page_writes - writes == len(leaves)

    @pytest.mark.parametrize("capacity", [8, 64])
    def test_pages_and_accesses_match_the_old_insert_loop(self, capacity):
        sides = []
        for cls in (BTree, OldInsertBTree):
            disk, pool, __ = make_tree(page_size=512, capacity=capacity)
            tree = cls(pool, BTree.create(pool).meta_page_id)
            rng = random.Random(8)
            for __ in range(2000):
                tree.insert(rng.randbytes(8),
                            rng.randbytes(rng.choice([0, 20, 60, 200])))
            pool.flush_all()
            sides.append((
                [disk.read_page(page) for page in range(disk.num_pages)],
                pool.stats.hits, pool.stats.misses, disk.stats.page_writes,
            ))
        (pages, hits, misses, writes), (old_pages, old_hits, old_misses,
                                        old_writes) = sides
        assert tree.height() >= 3
        assert pages == old_pages
        assert (hits, misses) == (old_hits, old_misses)
        assert writes < old_writes


# ----------------------------------------------------------------------
# The one packer against the per-item loader it replaced
# ----------------------------------------------------------------------


def legacy_bulk_create(pool, items, fill_fraction=0.9):
    """``BTree.bulk_create`` as it stood before runs: one Python step per
    item, checks included.  Kept verbatim as the oracle for page bytes,
    page allocation and the pool's fetch/unpin sequence."""
    if not 0.1 <= fill_fraction <= 1.0:
        raise BTreeError(f"fill fraction {fill_fraction} outside [0.1, 1]")
    tree = BTree.create(pool)
    budget = int((pool.disk.payload_size - btree_module._HEADER_SIZE) * fill_fraction)
    leaves = []
    current = tree._load_node(tree._root_id)
    used = 0
    previous_key = None
    for key, value in items:
        if previous_key is not None and key <= previous_key:
            raise BTreeError(
                "bulk_create requires strictly increasing keys; "
                f"{key!r} after {previous_key!r}"
            )
        previous_key = key
        tree._check_entry(key, value)
        size = btree_module._leaf_entry_size(key, value)
        if current.keys and used + size > budget:
            fresh = tree._new_node(is_leaf=True)
            current.next_leaf = fresh.page_id
            tree._store_node(current)
            leaves.append((bytes(current.keys[0]), current.page_id))
            current = fresh
            used = 0
        current.keys.append(key)
        current.values.append(value)
        used += size
    tree._store_node(current)
    leaves.append((bytes(current.keys[0]) if current.keys else b"",
                   current.page_id))
    level = leaves
    while len(level) > 1:
        parent_budget = int(
            (pool.disk.payload_size - btree_module._HEADER_SIZE - 8) * fill_fraction
        )
        next_level = []
        node = tree._new_node(is_leaf=False)
        node.children.append(level[0][1])
        first_key = level[0][0]
        used = 0
        for separator, child in level[1:]:
            size = btree_module._internal_entry_size(separator)
            if node.keys and used + size > parent_budget:
                tree._store_node(node)
                next_level.append((first_key, node.page_id))
                node = tree._new_node(is_leaf=False)
                node.children.append(child)
                first_key = separator
                used = 0
                continue
            node.keys.append(separator)
            node.children.append(child)
            used += size
        tree._store_node(node)
        next_level.append((first_key, node.page_id))
        level = next_level
    tree._write_meta(level[0][1])
    return tree


def pool_image(pool):
    """Every page's bytes and every I/O counter of ``pool`` and its disk."""
    pool.flush_all()
    disk = pool.disk
    return (
        [disk.read_page(page) for page in range(disk.num_pages)],
        (pool.stats.hits, pool.stats.misses, pool.stats.evictions,
         pool.stats.dirty_writebacks),
        (disk.stats.page_reads, disk.stats.page_writes),
    )


def mixed_items(rng, count, page_size):
    """Sorted unique items with key and value lengths either side of the
    one-byte varint limit, up to the per-entry limit."""
    limit = btree_module.entry_limit(page_size - 16)
    items = {}
    while len(items) < count:
        key = rng.randbytes(rng.choice([4, 8, 12, 12, 12, 127, 128, 130]))
        room = limit - 10 - len(key)
        value = rng.randbytes(min(room, rng.choice([0, 1, 20, 127, 128, 300, room])))
        items[key] = value
    return sorted(items.items())


def first_leaf(tree):
    leaf = tree._load_node(tree._root_id)
    while not leaf.is_leaf:
        leaf = tree._load_node(leaf.children[0])
    return leaf


class TestOnePacker:
    @pytest.mark.parametrize("page_size", [512, 1024, 4096])
    @pytest.mark.parametrize("fill_fraction", [0.37, 0.9, 1.0])
    def test_pages_and_io_match_the_per_item_loader(self, page_size, fill_fraction):
        # 2 500 items: the adapter's runs end mid-leaf, and a 12-page pool
        # evicts, so every fetch and unpin shows in the counters.
        items = mixed_items(random.Random(page_size), 2_500, page_size)
        images = []
        for build in (BTree.bulk_create, legacy_bulk_create):
            pool = BufferPool(InMemoryDiskManager(page_size), capacity=12)
            tree = build(pool, iter(items), fill_fraction)
            assert list(tree.items()) == items
            images.append(pool_image(pool))
        assert images[0] == images[1]
        assert images[0][1][2] > 0  # the pool did evict

    def test_runs_cut_anywhere_pack_the_same_leaves(self):
        from repro.storage.btree import _item_runs

        items = mixed_items(random.Random(4), 300, 1024)
        (data, ends), = _item_runs(items, btree_module.entry_limit(1008))
        images = []
        for cut in (None, 1, 2, 7, 64):
            if cut is None:
                runs = [(data, ends)]
            else:
                bounds = [0] + ends.tolist()
                runs = [
                    (data[bounds[at]:bounds[min(at + cut, len(ends))]],
                     ends[at:at + cut] - bounds[at])
                    for at in range(0, len(ends), cut)
                ]
            pool = BufferPool(InMemoryDiskManager(1024), capacity=12)
            BTree.bulk_create_runs(pool, iter(runs))
            images.append(pool_image(pool))
        assert all(image == images[0] for image in images)

    @pytest.mark.parametrize("fill_fraction", [0.9, 1.0])
    def test_a_leaf_filled_exactly_to_its_budget(self, fill_fraction):
        page_size = 512
        budget = int((page_size - 16 - 11) * fill_fraction)
        # 8-byte keys and 90-byte values: 100 bytes an entry.
        values = [bytes(90)] * (budget // 100)
        values.append(bytes(budget - 100 * len(values) - 10))
        items = [(key_of(at), value) for at, value in enumerate(values * 3)]
        images = []
        for build in (BTree.bulk_create, legacy_bulk_create):
            pool = BufferPool(InMemoryDiskManager(page_size), capacity=8)
            tree = build(pool, items, fill_fraction)
            images.append(pool_image(pool))
        assert images[0] == images[1]
        leaf = first_leaf(tree)
        assert len(leaf.keys) == len(values)
        assert leaf.encoded_size() - 11 == budget

    def test_partition_index_pages_match_the_per_item_loader(self, monkeypatch):
        from repro.storage import partition_store
        from repro.storage.partition_store import PartitionStore

        rng = random.Random(6)
        appends = [(rng.randrange(40), rng.randrange(2**64), rng.randrange(2**32))
                   for __ in range(12_000)]
        images = []
        for legacy in (False, True):
            if legacy:
                monkeypatch.setattr(partition_store.BTree, "bulk_create",
                                    staticmethod(legacy_bulk_create))
            pool = BufferPool(InMemoryDiskManager(512), capacity=16)
            store = PartitionStore(pool, signature_bytes=8, num_partitions=40)
            for partition, signature, tid in appends:
                store.append(partition, signature, tid)
            store.seal()
            assert store._tree.height() >= 2
            images.append(pool_image(pool))
        assert images[0] == images[1]


class TestRejectedLoadsFreeTheirPages:
    """A bulk load that fails part way — after it has written leaves —
    frees every page it allocated, and the next load reuses them."""

    LOADED = 2_000  # more than one run of items: leaves are written first

    @classmethod
    def failing(cls, kind):
        items = [(key_of(value), bytes(40)) for value in range(cls.LOADED)]
        if kind == "unsorted":
            items.append((key_of(5), b""))
        elif kind == "duplicate":
            items.append(items[-1])
        else:
            items.append((key_of(cls.LOADED), bytes(400)))
        return items

    @pytest.mark.parametrize("kind", ["unsorted", "duplicate", "oversize"])
    def test_page_accounting_returns_to_its_start(self, kind):
        disk, pool, tree = make_tree(page_size=512, capacity=16)
        tree.insert(b"resident", b"1")
        live, pages = disk.num_live_pages, disk.num_pages
        with pytest.raises(BTreeError) as rejected:
            BTree.bulk_create(pool, self.failing(kind))
        assert disk.num_live_pages == live
        assert disk.num_free_pages == disk.num_pages - pages > 0
        # The same error as the per-item loader, item for item.
        __, legacy_pool, __ = make_tree(page_size=512, capacity=16)
        with pytest.raises(BTreeError) as legacy:
            legacy_bulk_create(legacy_pool, self.failing(kind))
        assert str(rejected.value) == str(legacy.value)
        # The next load takes the freed pages before growing the file.
        freed = disk.num_free_pages
        reloaded = BTree.bulk_create(pool, self.failing(kind)[:-1])
        assert disk.num_free_pages == 0
        assert disk.num_pages == pages + max(freed, disk.num_live_pages - live)
        assert [int.from_bytes(key, "big") for key, __ in reloaded.items()] == (
            list(range(self.LOADED)))
        assert tree.get(b"resident") == b"1"

    def test_a_producer_error_frees_the_pages_too(self):
        disk, pool, __ = make_tree(page_size=512, capacity=16)
        live = disk.num_live_pages

        def items():
            yield from ((key_of(value), bytes(40)) for value in range(2_000))
            raise OSError("input went away")

        with pytest.raises(OSError, match="went away"):
            BTree.bulk_create(pool, items())
        assert disk.num_live_pages == live
