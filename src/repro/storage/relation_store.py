"""Disk-resident relations keyed by tuple identifier.

Mirrors the paper's testbed layout: "The relations are stored as B-trees
with the tuple identifiers serving as keys."  Each record holds the
set-valued attribute plus a fixed-size payload standing in for the
relation's other attributes (100 bytes in the paper's experiments).

Records larger than a B-tree entry (the paper's motivating sets reach
thousands of elements — e.g. ~10000 active genes) are transparently split
into chunks keyed by ``(tid, chunk number)``, so arbitrarily large sets
round-trip; chunks of one tuple are adjacent in key order and read
sequentially.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from .btree import BTree
from .buffer import BufferPool
from .serialization import (
    decode_tuple_record,
    decode_tuple_records,
    encode_tuple_record,
    encode_tuple_records,
)

__all__ = ["RelationStore", "DEFAULT_PAYLOAD_SIZE"]

DEFAULT_PAYLOAD_SIZE = 100

#: Tuples the batch coders see at once, loading and scanning.  A memory
#: bound, not a knob: a batch's arrays are live beside the relation being
#: loaded or partitioned.  Measured on the benchmark's ``case_study`` (10 000
#: x 10 000 tuples of ~180-byte records, about 21 to a leaf; ``peak_rss_mb``
#: 212 MB and ``join_wall_s`` 2.83 s before batching): 24 tuples 214 MB at
#: 1.41 s, 256 tuples 214 MB at 1.05 s, 1 024 tuples 221 MB at 1.05 s, a
#: whole relation 303 MB (+43 %) at 1.09 s.
BATCH_TUPLES = 256


#: Tuple identifiers are the 8-byte prefix of a chunk key.
_TID_LIMIT = 1 << 64


def _chunk_key(tid: int, chunk: int) -> bytes:
    return tid.to_bytes(8, "big") + chunk.to_bytes(4, "big")


def _chunk_range(tid: int) -> tuple[bytes, bytes | None]:
    """The ``[start, end)`` key range holding the chunks of ``tid``; the
    largest tid has no successor to end at, so its range is open."""
    end = None if tid == _TID_LIMIT - 1 else _chunk_key(tid + 1, 0)
    return _chunk_key(tid, 0), end


def _chunk_size(pool: BufferPool) -> int:
    # Stay safely inside the B-tree's per-entry limit (key is 12 bytes).
    return (pool.disk.payload_size - 27) // 2 - 64


def _chunks(tid: int, record: bytes, size: int) -> Iterator[tuple[bytes, bytes]]:
    """The ``(key, value)`` B-tree entries holding one encoded tuple."""
    for chunk, offset in enumerate(range(0, len(record) or 1, size)):
        yield _chunk_key(tid, chunk), record[offset : offset + size]


def _encoded(
    tuples: Iterable[tuple[int, Iterable[int]]], payload: bytes
) -> Iterator[tuple[int, bytes]]:
    """``(tid, record)`` per input tuple, in input order; the input is
    streamed and encoded :data:`BATCH_TUPLES` at a time."""
    rows = iter(tuples)
    while batch := list(islice(rows, BATCH_TUPLES)):
        tids = [tid for tid, __ in batch]
        sets = [elements for __, elements in batch]
        yield from zip(tids, encode_tuple_records(tids, sets, payload))


def _decoded(
    records: Iterator[bytes],
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``records`` decoded :data:`BATCH_TUPLES` at a time, as the
    ``(tids, elements, offsets)`` arrays of
    :func:`~.serialization.decode_tuple_records`."""
    while batch := list(islice(records, BATCH_TUPLES)):
        yield decode_tuple_records(batch)


class RelationStore:
    """One stored relation with a set-valued attribute.

    Tuples are ``(tid, frozenset[int], payload: bytes)``.  The store assigns
    no semantics to payloads; they exist so that fetching a tuple costs a
    realistic amount of I/O, as in the paper.
    """

    def __init__(self, pool: BufferPool, meta_page_id: int, name: str = ""):
        self.name = name
        self._pool = pool
        self._tree = BTree(pool, meta_page_id)
        self._count: int | None = None

    @classmethod
    def create(cls, pool: BufferPool, name: str = "") -> "RelationStore":
        store = cls.__new__(cls)
        store.name = name
        store._pool = pool
        store._tree = BTree.create(pool)
        store._count = 0
        return store

    @classmethod
    def create_sorted(
        cls,
        pool: BufferPool,
        tuples: Iterable[tuple[int, Iterable[int]]],
        payload_size: int = DEFAULT_PAYLOAD_SIZE,
        name: str = "",
    ) -> "RelationStore":
        """Create and load in one pass from tid-ascending ``(tid, elements)``.

        Uses the B-tree's bottom-up bulk loader — each page written once,
        no splits — which is how the testbed loads relations.  Raises if
        tids are not strictly increasing.
        """
        store = cls.__new__(cls)
        store.name = name
        store._pool = pool
        size = _chunk_size(pool)
        count = 0

        def entries():
            nonlocal count
            for tid, record in _encoded(tuples, bytes(payload_size)):
                count += 1
                yield from _chunks(tid, record, size)

        store._tree = BTree.bulk_create(pool, entries())
        store._count = count
        return store

    @property
    def meta_page_id(self) -> int:
        """Page id that re-opens this store via the constructor."""
        return self._tree.meta_page_id

    def insert(self, tid: int, elements: Iterable[int], payload: bytes = b"") -> None:
        """Insert one tuple (overwrites an existing tid)."""
        self._insert_record(tid, encode_tuple_record(tid, elements, payload))

    def _insert_record(self, tid: int, record: bytes) -> None:
        existing = self._tree.get(_chunk_key(tid, 0))
        if existing is not None:
            self._delete_chunks(tid)
        elif self._count is not None:
            self._count += 1
        for key, value in _chunks(tid, record, _chunk_size(self._pool)):
            self._tree.insert(key, value)

    def _delete_chunks(self, tid: int) -> None:
        chunk = 0
        while self._tree.delete(_chunk_key(tid, chunk)):
            chunk += 1

    def bulk_load(
        self,
        tuples: Iterable[tuple[int, Iterable[int]]],
        payload_size: int = DEFAULT_PAYLOAD_SIZE,
    ) -> int:
        """Load ``(tid, elements)`` pairs with uniform zero payloads.

        Returns the number of tuples loaded.
        """
        loaded = 0
        for tid, record in _encoded(tuples, bytes(payload_size)):
            self._insert_record(tid, record)
            loaded += 1
        return loaded

    def fetch(self, tid: int) -> tuple[frozenset[int], bytes] | None:
        """Fetch the set and payload of one tuple, or ``None`` if absent."""
        if not 0 <= tid < _TID_LIMIT:
            return None
        chunks = [value for __, value in self._tree.scan(*_chunk_range(tid))]
        if not chunks:
            return None
        __, elements, payload = decode_tuple_record(b"".join(chunks))
        return elements, payload

    def fetch_set(self, tid: int) -> frozenset[int] | None:
        """Fetch just the set-valued attribute of one tuple."""
        result = self.fetch(tid)
        return None if result is None else result[0]

    def fetch_batches(
        self, tids: Iterable[int]
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The stored tuples among ``tids``, in tid order, as the
        ``(tids, elements, offsets)`` arrays of :meth:`scan_batches`,
        :data:`BATCH_TUPLES` at a time.

        The paper sorts candidate tuple identifiers before fetching them
        so that verification reads the relation forwards; here the sorted
        distinct tids go through one :meth:`BTree.scan_ranges` cursor, so
        tids that lie close together read each leaf once, like a scan, and
        only a tid beyond the cursor's leaf costs a descent.  Absent tids
        (and values that cannot be tids at all) are skipped.
        """
        wanted = sorted({tid for tid in tids if 0 <= tid < _TID_LIMIT})
        return _decoded(
            b"".join(chunks)
            for chunks in self._tree.scan_ranges(map(_chunk_range, wanted))
            if chunks
        )

    def fetch_many(self, tids: Iterable[int]) -> dict[int, frozenset[int]]:
        """:meth:`fetch_batches` as a ``{tid: set}`` dict of the tuples
        found (absent tids are omitted)."""
        result: dict[int, frozenset[int]] = {}
        for found, elements, offsets in self.fetch_batches(tids):
            flat, bounds = elements.tolist(), offsets.tolist()
            for tid, lo, hi in zip(found.tolist(), bounds, bounds[1:]):
                result[tid] = frozenset(flat[lo:hi])
        return result

    def _records(self) -> Iterator[bytes]:
        """Each tuple's encoded record, its chunks joined, in tid order: one
        pass over the leaf chain."""
        current: bytes | None = None
        chunks: list[bytes] = []
        for key, value in self._tree.items():
            if key[:8] != current:
                if chunks:
                    yield b"".join(chunks)
                current = key[:8]
                chunks = []
            chunks.append(value)
        if chunks:
            yield b"".join(chunks)

    def scan(self) -> Iterator[tuple[int, frozenset[int], bytes]]:
        """Yield all tuples in tid order."""
        for record in self._records():
            yield decode_tuple_record(record)

    def scan_batches(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The tuples of :meth:`scan`, :data:`BATCH_TUPLES` at a time, as
        arrays: ``(tids, elements, offsets)`` per batch, tuple ``i``'s set
        being the ascending ``elements[offsets[i]:offsets[i + 1]]`` (see
        :func:`~.serialization.decode_tuple_records`).  Whole tuples only:
        a tuple's chunks are joined before it is counted into a batch.
        """
        return _decoded(self._records())

    def tids(self) -> Iterator[int]:
        """Yield all tuple identifiers in order."""
        previous: int | None = None
        for key, __ in self._tree.items():
            tid = int.from_bytes(key[:8], "big")
            if tid != previous:
                yield tid
                previous = tid

    def __len__(self) -> int:
        if self._count is None:
            self._count = sum(1 for __ in self.tids())
        return self._count

    def __contains__(self, tid: int) -> bool:
        return 0 <= tid < _TID_LIMIT and _chunk_key(tid, 0) in self._tree
