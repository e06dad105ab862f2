"""A paged B+tree over the buffer pool.

This is the reproduction's stand-in for Berkeley DB's B-tree access method,
which the paper's testbed uses both for the input relations (keyed by tuple
identifier) and for the partition data (keyed by partition index and
portion number).

Design:

* Keys and values are arbitrary byte strings; keys are compared
  lexicographically, so fixed-width big-endian integer keys sort
  numerically.
* Every node occupies exactly one page and is (de)serialized through the
  buffer pool on access, so the pool's hit/miss counters and the disk
  manager's physical I/O counters faithfully reflect tree traffic.
* Leaves are chained left-to-right for range scans.
* Deletion is by tombstone-free removal from the leaf without rebalancing
  ("lazy deletion"); the tree never becomes incorrect, only possibly
  under-full -- the standard trade-off for write-once/scan-heavy workloads
  like join partitions.

Page layout::

    byte 0        node type: 0 = internal, 1 = leaf
    bytes 1..2    entry count (big-endian u16)
    bytes 3..10   leaf: next-leaf page id + 1 (0 = none); internal: unused
    bytes 11..    payload

    leaf payload:      repeated (klen uvarint, key, vlen uvarint, value)
    internal payload:  child0 (u64), repeated (klen uvarint, key, child u64)

An internal node with entries ``[(k1, c1), ..., (kn, cn)]`` and first child
``c0`` routes a lookup key ``k`` to ``c_i`` where ``i`` is the number of
separators ``<= k``.  Separator ``k_i`` is the smallest key in subtree
``c_i``.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator

from ..errors import BTreeError, SerializationError
from .buffer import BufferPool
from .serialization import decode_uvarint, encode_uvarint

__all__ = ["BTree"]

_INTERNAL = 0
_LEAF = 1
_HEADER_SIZE = 11
_NO_LEAF = 0
_MAX_DEPTH = 64  # guards descent against cycles from corrupted pages

# The node codec runs on every insert, lookup and scan step, over every key
# of the node; lengths below 0x80 -- every key, most values -- take the
# one-byte varint from a table instead of a call into the varint coder.
_ONE_BYTE = [bytes([length]) for length in range(0x80)]


def _length_prefix(length: int) -> bytes:
    """``encode_uvarint(length)``."""
    return _ONE_BYTE[length] if length < 0x80 else encode_uvarint(length)


def _prefixed_size(item: bytes) -> int:
    """Bytes ``item`` occupies in a node: its length varint plus itself."""
    length = len(item)
    if length < 0x80:
        return length + 1
    return length + (length.bit_length() + 6) // 7


def _leaf_entry_size(key: bytes, value: bytes) -> int:
    return _prefixed_size(key) + _prefixed_size(value)


def _internal_entry_size(key: bytes) -> int:
    return _prefixed_size(key) + 8


class _Node:
    """In-memory image of one B+tree node."""

    __slots__ = ("page_id", "is_leaf", "keys", "values", "children", "next_leaf")

    def __init__(self, page_id: int, is_leaf: bool):
        self.page_id = page_id
        self.is_leaf = is_leaf
        self.keys: list[bytes] = []
        # Leaves use ``values`` (bytes per key); internals use ``children``
        # (page ids, len(children) == len(keys) + 1).
        self.values: list[bytes] = []
        self.children: list[int] = []
        self.next_leaf: int | None = None

    def encoded_size(self) -> int:
        if self.is_leaf:
            return _HEADER_SIZE + sum(map(_leaf_entry_size, self.keys, self.values))
        return _HEADER_SIZE + 8 + sum(map(_internal_entry_size, self.keys))


class BTree:
    """B+tree of byte keys and byte values.

    Create a new tree with :meth:`create` or reopen an existing one from its
    meta page with the constructor.  The meta page stores the root page id
    so a tree is fully identified by ``(pool, meta_page_id)``.
    """

    def __init__(self, pool: BufferPool, meta_page_id: int):
        self.pool = pool
        self.meta_page_id = meta_page_id
        self._root_id = self._read_meta()

    # ------------------------------------------------------------------
    # Construction and metadata
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, pool: BufferPool) -> "BTree":
        """Allocate an empty tree (meta page + empty root leaf)."""
        meta = pool.new_page()
        root = pool.new_page()
        node = _Node(root.page_id, is_leaf=True)
        cls._store_node_into(pool, node)
        pool.unpin(root.page_id, dirty=True)
        meta.data[0:8] = root.page_id.to_bytes(8, "big")
        pool.unpin(meta.page_id, dirty=True)
        return cls(pool, meta.page_id)

    @classmethod
    def bulk_create(
        cls,
        pool: BufferPool,
        items: "Iterator[tuple[bytes, bytes]] | list[tuple[bytes, bytes]]",
        fill_fraction: float = 0.9,
    ) -> "BTree":
        """Build a tree bottom-up from key-ordered ``(key, value)`` items.

        Packs leaves left-to-right to ``fill_fraction`` of the page, then
        builds each internal level over the one below — no splits, no
        rebalancing, each page written once.  This is how the testbed
        loads relations (tuples arrive in tid order); it is much faster
        than repeated :meth:`insert` and produces a compact tree.

        Keys must be strictly increasing; a violation raises
        :class:`BTreeError`.
        """
        if not 0.1 <= fill_fraction <= 1.0:
            raise BTreeError(f"fill fraction {fill_fraction} outside [0.1, 1]")
        tree = cls.create(pool)
        budget = int((pool.disk.payload_size - _HEADER_SIZE) * fill_fraction)

        # Level 0: pack leaves.
        leaves: list[tuple[bytes, int]] = []  # (first key, page id)
        current = tree._load_node(tree._root_id)  # the empty root leaf
        used = 0
        previous_key: bytes | None = None
        for key, value in items:
            if previous_key is not None and key <= previous_key:
                raise BTreeError(
                    "bulk_create requires strictly increasing keys; "
                    f"{key!r} after {previous_key!r}"
                )
            previous_key = key
            tree._check_entry(key, value)
            size = _leaf_entry_size(key, value)
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

        # Upper levels: pack (separator, child) runs until one node remains.
        level = leaves
        while len(level) > 1:
            parent_budget = int(
                (pool.disk.payload_size - _HEADER_SIZE - 8) * fill_fraction
            )
            next_level: list[tuple[bytes, int]] = []
            node = tree._new_node(is_leaf=False)
            node.children.append(level[0][1])
            first_key = level[0][0]
            used = 0
            for separator, child in level[1:]:
                size = _internal_entry_size(separator)
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

    def _read_meta(self) -> int:
        frame = self.pool.fetch(self.meta_page_id)
        root_id = int.from_bytes(frame.data[0:8], "big")
        self.pool.unpin(self.meta_page_id)
        return root_id

    def _write_meta(self, root_id: int) -> None:
        frame = self.pool.fetch(self.meta_page_id)
        frame.data[0:8] = root_id.to_bytes(8, "big")
        self.pool.unpin(self.meta_page_id, dirty=True)
        self._root_id = root_id

    # ------------------------------------------------------------------
    # Node (de)serialization through the buffer pool
    # ------------------------------------------------------------------

    def _load_node(self, page_id: int) -> _Node:
        frame = self.pool.fetch(page_id)
        data = bytes(frame.data)
        self.pool.unpin(page_id)
        node_type = data[0]
        count = int.from_bytes(data[1:3], "big")
        node = _Node(page_id, is_leaf=(node_type == _LEAF))
        pos = _HEADER_SIZE
        keys, values, children = node.keys, node.values, node.children
        try:
            if node.is_leaf:
                next_ref = int.from_bytes(data[3:11], "big")
                node.next_leaf = None if next_ref == _NO_LEAF else next_ref - 1
                for _ in range(count):
                    klen = data[pos]
                    pos += 1
                    if klen >= 0x80:
                        klen, pos = decode_uvarint(data, pos - 1)
                    keys.append(data[pos : pos + klen])
                    pos += klen
                    vlen = data[pos]
                    pos += 1
                    if vlen >= 0x80:
                        vlen, pos = decode_uvarint(data, pos - 1)
                    values.append(data[pos : pos + vlen])
                    pos += vlen
            else:
                children.append(int.from_bytes(data[pos : pos + 8], "big"))
                pos += 8
                # Fixed-width keys (relation, partition and spill trees):
                # every entry is one length byte, the key and the child, so
                # the node decodes by stride.  Anything else -- mixed
                # lengths, a multi-byte prefix, entries past the page --
                # takes the loop and fails as it always did.
                klen = data[pos]
                end = pos + count * (klen + 9)
                if (
                    count
                    and klen < 0x80
                    and end <= len(data)
                    and data[pos : end : klen + 9] == _ONE_BYTE[klen] * count
                ):
                    entries = struct.iter_unpack(f">x{klen}sQ", data[pos:end])
                    node.keys, entry_children = map(list, zip(*entries))
                    children += entry_children
                else:
                    for _ in range(count):
                        klen = data[pos]
                        pos += 1
                        if klen >= 0x80:
                            klen, pos = decode_uvarint(data, pos - 1)
                        keys.append(data[pos : pos + klen])
                        pos += klen
                        children.append(
                            int.from_bytes(data[pos : pos + 8], "big")
                        )
                        pos += 8
        except IndexError:
            raise SerializationError("truncated uvarint") from None
        return node

    @staticmethod
    def _store_node_into(pool: BufferPool, node: _Node) -> None:
        capacity = pool.disk.payload_size
        kind = _LEAF if node.is_leaf else _INTERNAL
        header = bytes([kind]) + len(node.keys).to_bytes(2, "big")
        if node.is_leaf:
            next_ref = _NO_LEAF if node.next_leaf is None else node.next_leaf + 1
            parts = [header, next_ref.to_bytes(8, "big")]
            for key, value in zip(node.keys, node.values):
                parts += (
                    _length_prefix(len(key)), key,
                    _length_prefix(len(value)), value,
                )
        else:
            parts = [header, bytes(8), node.children[0].to_bytes(8, "big")]
            for key, child in zip(node.keys, node.children[1:]):
                parts += (_length_prefix(len(key)), key, child.to_bytes(8, "big"))
        out = b"".join(parts)
        if len(out) > capacity:
            raise BTreeError(
                f"node {node.page_id} serializes to {len(out)} bytes "
                f"> page payload capacity {capacity}"
            )
        frame = pool.fetch(node.page_id)
        frame.data[:] = out.ljust(capacity, b"\x00")
        pool.unpin(node.page_id, dirty=True)

    def _store_node(self, node: _Node) -> None:
        self._store_node_into(self.pool, node)

    def _new_node(self, is_leaf: bool) -> _Node:
        frame = self.pool.new_page()
        self.pool.unpin(frame.page_id, dirty=True)
        return _Node(frame.page_id, is_leaf)

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------

    def _leaf_for(self, key: bytes | None) -> _Node:
        """Descend from the root to the leaf that holds, or would hold,
        ``key`` (``None``: the leftmost leaf)."""
        node = self._load_node(self._root_id)
        depth = 0
        while not node.is_leaf:
            depth += 1
            if depth > _MAX_DEPTH:
                raise BTreeError("descent exceeded max depth; tree corrupt?")
            index = 0 if key is None else bisect_right(node.keys, key)
            node = self._load_node(node.children[index])
        return node

    def get(self, key: bytes) -> bytes | None:
        """Return the value stored under ``key``, or ``None``."""
        node = self._leaf_for(key)
        index = bisect_left(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            return bytes(node.values[index])
        return None

    def insert(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key`` with ``value``."""
        self._check_entry(key, value)
        promotions = self._insert_into(self._root_id, key, value)
        while promotions:
            new_root = self._new_node(is_leaf=False)
            new_root.keys = [separator for separator, __ in promotions]
            new_root.children = [self._root_id] + [
                page_id for __, page_id in promotions
            ]
            # Store the new root before pointing the meta page at it: an
            # I/O fault in between must leave the tree readable (pointing
            # at the old root), never at an uninitialized page.
            promotions = self._store_or_split(new_root)
            self._write_meta(new_root.page_id)

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns whether it was present (lazy deletion)."""
        node = self._leaf_for(key)
        index = bisect_left(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            del node.keys[index]
            del node.values[index]
            self._store_node(node)
            return True
        return False

    def scan(
        self,
        start_key: bytes | None = None,
        end_key: bytes | None = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        """Yield ``(key, value)`` pairs with ``start_key <= key < end_key``.

        ``None`` bounds are open.  Scans follow the leaf chain, so a full
        scan reads each leaf exactly once.
        """
        for run in self._leaf_runs([(start_key, end_key)]):
            if run is not None:
                yield from zip(*run)

    def scan_ranges(
        self, bounds: "Iterable[tuple[bytes | None, bytes | None]]"
    ) -> Iterator[list[bytes]]:
        """The values of each ``[start, end)`` key range, in one forward pass.

        ``bounds`` are ascending and disjoint: each range starts at or
        after the end of the one before (only the first start and the
        last end may be ``None``, i.e. open).  Yields one list of values
        per range, ``[value for __, value in scan(start, end)]``, but the
        cursor never goes back: a range starting at or before the last
        key of the leaf it is on is served from that leaf and on along
        the leaf chain; only a range starting beyond it descends from the
        root.  Ranges that follow one another closely therefore read each
        leaf once, like a scan; far-apart ones cost a descent each, like
        :meth:`scan`.
        """
        values: list[bytes] = []
        for run in self._leaf_runs(bounds):
            if run is None:
                yield values
                values = []
            else:
                values += run[1]

    def _leaf_runs(self, bounds):
        """The one leaf walk behind :meth:`scan` and :meth:`scan_ranges`:
        for each range of ``bounds`` in turn, a ``(keys, values)`` pair of
        lists per leaf holding some of it, then ``None``."""
        node: _Node | None = None
        index = 0
        floor: bytes | None = None  # end of the previous range
        for start, end in bounds:
            if node is None:
                node = self._leaf_for(start)
                index = 0 if start is None else bisect_left(node.keys, start)
            elif floor is None or start is None or start < floor:
                raise BTreeError(
                    "scan_ranges needs ascending, disjoint key ranges"
                )
            elif node.keys and start <= node.keys[-1]:
                index = bisect_left(node.keys, start, index)
            elif node.next_leaf is None:
                index = len(node.keys)  # past the last key of the tree
            else:
                node = self._leaf_for(start)
                index = bisect_left(node.keys, start)
            floor = end
            while True:
                keys = node.keys
                stop = len(keys) if end is None else bisect_left(keys, end, index)
                if stop > index:
                    yield keys[index:stop], node.values[index:stop]
                    index = stop
                if stop < len(keys) or node.next_leaf is None:
                    break
                node = self._load_node(node.next_leaf)
                index = 0
            yield None

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Full ordered scan."""
        return self.scan()

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    def destroy(self) -> int:
        """Free every page of the tree (nodes + meta); returns pages freed.

        The tree must not be used afterwards.  Join partitions are
        temporary — "stored on disk temporarily" in the paper — so the
        operator destroys their trees once the joining phase is done,
        returning the space for reuse.
        """
        freed = 0
        stack = [self._root_id]
        while stack:
            page_id = stack.pop()
            node = self._load_node(page_id)
            if not node.is_leaf:
                stack.extend(node.children)
            self.pool.free_page(page_id)
            freed += 1
        self.pool.free_page(self.meta_page_id)
        return freed + 1

    def height(self) -> int:
        """Number of levels from root to leaf (1 for a lone leaf)."""
        levels = 1
        node = self._load_node(self._root_id)
        while not node.is_leaf:
            levels += 1
            if levels > _MAX_DEPTH:
                raise BTreeError("descent exceeded max depth; tree corrupt?")
            node = self._load_node(node.children[0])
        return levels

    # ------------------------------------------------------------------
    # Insertion internals
    # ------------------------------------------------------------------

    def _check_entry(self, key: bytes, value: bytes) -> None:
        # An entry must leave room for at least two entries per node,
        # otherwise a split cannot reduce node size.
        limit = (self.pool.disk.payload_size - _HEADER_SIZE - 16) // 2
        entry_size = len(key) + len(value) + 10
        if entry_size > limit:
            raise BTreeError(
                f"entry of {entry_size} bytes exceeds per-entry limit {limit}"
            )

    def _insert_into(
        self, page_id: int, key: bytes, value: bytes
    ) -> list[tuple[bytes, int]]:
        """Recursive insert.

        Returns the (possibly empty) ordered list of
        ``(separator, new_right_page)`` promotions produced by splitting.
        A split can promote more than one separator because nodes split
        into as many page-sized chunks as their variable-size entries
        require.
        """
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
        # All promotions come from one child, so they slot in consecutively.
        node.keys[index:index] = [separator for separator, __ in promotions]
        node.children[index + 1 : index + 1] = [
            page_id for __, page_id in promotions
        ]
        return self._store_or_split(node)

    def _store_or_split(self, node: _Node) -> list[tuple[bytes, int]]:
        """Persist ``node``, splitting it into page-sized chunks if needed.

        Splitting is byte-budgeted, not count-based: entries are packed
        greedily into chunks that each fit a page, which stays correct for
        arbitrarily skewed entry sizes (portion records next to tiny keys).
        The first chunk reuses the node's page; every further chunk gets a
        new page and contributes one promoted separator.
        """
        if node.encoded_size() <= self.pool.disk.payload_size:
            self._store_node(node)
            return []
        if node.is_leaf:
            return self._split_leaf(node)
        return self._split_internal(node)

    def _split_leaf(self, node: _Node) -> list[tuple[bytes, int]]:
        budget = self.pool.disk.payload_size - _HEADER_SIZE
        chunks: list[tuple[list[bytes], list[bytes]]] = []
        keys: list[bytes] = []
        values: list[bytes] = []
        used = 0
        for key, value in zip(node.keys, node.values):
            size = _leaf_entry_size(key, value)
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

    def _split_internal(self, node: _Node) -> list[tuple[bytes, int]]:
        budget = self.pool.disk.payload_size - _HEADER_SIZE - 8
        # Chunk the (key, child) pairs; the key at each cut moves up.
        pairs = list(zip(node.keys, node.children[1:]))
        chunks: list[tuple[int, list[tuple[bytes, int]]]] = []
        first_child = node.children[0]
        current: list[tuple[bytes, int]] = []
        used = 0
        cut_keys: list[bytes] = []
        for key, child in pairs:
            size = _internal_entry_size(key)
            if current and used + size > budget:
                chunks.append((first_child, current))
                cut_keys.append(bytes(key))
                first_child = child
                current, used = [], 0
                continue  # the cut key moves up; its child starts the chunk
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
            fresh.children = [chunk_child0] + [child for __, child in chunk_pairs]
            promotions.append((cut_key, fresh.page_id))
        for fresh in [node] + new_nodes:
            self._store_node(fresh)
        return promotions
