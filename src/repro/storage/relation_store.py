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

A relation is written once, bottom-up, by :meth:`RelationStore.create`
and never changed afterwards: nothing is inserted into or deleted from
its B-tree, which is dropped whole with the relation.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from ..errors import ConfigurationError, SerializationError
from .btree import BTree, LeafEntries, entry_limit, leaf_entry_run
from .buffer import BufferPool
from .serialization import (
    decode_tuple_buffer,
    decode_tuple_record,
    decode_tuple_records,
    encode_tuple_arrays,
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

#: Leaves :meth:`RelationStore.scan_batches` reads and parses at once.  A
#: memory bound, not a knob: a group's pages and its gathered records are
#: live beside the batches decoded from them.  Measured on the benchmark's
#: ``compare_heavy`` (both relations scanned, min of 5; peak RSS of one
#: join; 2-core host), against 0.118 s and 166.9 MB for the per-record
#: scan: 16 leaves 0.195 s, 64 leaves 0.104 s at 166.9 MB, 256 leaves
#: 0.086 s at 168.2 MB, 1 024 leaves 0.089 s at 178.0 MB, every leaf at
#: once 0.089 s at 182.3 MB.  ``case_study`` (0.085 s, 210.4 MB): 64 leaves
#: 0.084 s at 210.3 MB, 256 0.068 s at 212.3 MB, 1 024 0.072 s at 218.3 MB.
SCAN_LEAVES = 256


#: Tuple identifiers are the 8-byte prefix of a chunk key.
_TID_LIMIT = 1 << 64

#: A chunk key, as :func:`_chunk_key` writes it: tid, then chunk number.
_CHUNK_KEY = np.dtype([("tid", ">u8"), ("chunk", ">u4")])


def _chunk_key(tid: int, chunk: int) -> bytes:
    return tid.to_bytes(8, "big") + chunk.to_bytes(4, "big")


def _chunk_range(tid: int) -> tuple[bytes, bytes | None]:
    """The ``[start, end)`` key range holding the chunks of ``tid``; the
    largest tid has no successor to end at, so its range is open."""
    end = None if tid == _TID_LIMIT - 1 else _chunk_key(tid + 1, 0)
    return _chunk_key(tid, 0), end


def _chunk_size(pool: BufferPool) -> int:
    """Record bytes per chunk: a chunk entry (12-byte key) stays 42 bytes
    inside the B-tree's per-entry limit, so no entry needs checking."""
    size = entry_limit(pool.disk.payload_size) - 64
    if size < 1:
        raise ConfigurationError(
            f"{pool.disk.page_size}-byte pages are too small for relations"
        )
    return size


def _sorted_runs(batches: Iterable[tuple], payload: bytes, size: int
                 ) -> Iterator[tuple[bytes, np.ndarray]]:
    """``(tids, elements, offsets)`` batches in tid order, each encoded as
    one run of :meth:`BTree.bulk_create_runs`."""
    batches = iter(batches)
    while batch := next(batches, None):
        yield _chunked_run(batch[0].astype(np.uint64),
                           *encode_tuple_arrays(*batch, payload), size)


def _chunked_run(
    prefixes: np.ndarray, records: np.ndarray, bounds: np.ndarray, size: int
) -> tuple[bytes, np.ndarray]:
    """Non-empty records ``records[bounds[i]:bounds[i + 1]]`` (``bounds[0]``
    0) as a run of :meth:`BTree.bulk_create_runs`: each split into chunks
    of ``size`` bytes, chunk ``j`` of record ``i`` keyed ``(prefixes[i],
    j)`` as :func:`_chunk_key` writes it."""
    chunks = (np.diff(bounds) + size - 1) // size
    rows = np.repeat(np.arange(len(prefixes)), chunks)
    numbers = np.arange(rows.size) - np.repeat(np.cumsum(chunks) - chunks, chunks)
    lengths = np.minimum(size, bounds[rows + 1] - bounds[rows] - numbers * size)
    chunk_keys = np.empty(rows.size, dtype=_CHUNK_KEY)
    chunk_keys["tid"], chunk_keys["chunk"] = prefixes[rows], numbers
    # The chunks tile the records in order, so the records are the values.
    return leaf_entry_run(
        chunk_keys.view(np.uint8).reshape(rows.size, _CHUNK_KEY.itemsize),
        records, lengths,
    )


def _key_tids(entries: LeafEntries) -> np.ndarray:
    """The tid prefix of every entry's chunk key."""
    if (entries.key_lengths != _CHUNK_KEY.itemsize).any():
        raise SerializationError(
            f"relation entry with a {entries.key_lengths.max()}-byte key; "
            f"chunk keys are {_CHUNK_KEY.itemsize} bytes"
        )
    prefixes = entries.data[entries.key_starts[:, None] + np.arange(8)]
    return prefixes.view(">u8").ravel()


def _chunk_values(entries: LeafEntries) -> np.ndarray:
    """Every entry's value, back to back in key order."""
    starts, lengths = entries.value_starts, entries.value_lengths
    edges = np.empty(2 * starts.size + 2, dtype=np.int64)
    edges[0], edges[-1] = 0, entries.data.size
    edges[1:-1:2], edges[2:-1:2] = starts, starts + lengths
    spans = np.diff(edges)
    return entries.data[np.repeat(np.arange(spans.size) % 2 == 1, spans)]


def _decoded_buffer(
    data: np.ndarray, bounds: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The records ``data[bounds[i]:bounds[i + 1]]`` decoded
    :data:`BATCH_TUPLES` at a time."""
    for first in range(0, len(bounds) - 1, BATCH_TUPLES):
        yield decode_tuple_buffer(data, bounds[first : first + BATCH_TUPLES + 1])


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

    def __init__(self, pool: BufferPool, meta_page_id: int, name: str = "",
                 size: int | None = None):
        """``size``, the tuple count where known, spares ``len()`` a walk."""
        self.name = name
        self._tree = BTree(pool, meta_page_id)
        self._count = size

    @classmethod
    def create(
        cls,
        pool: BufferPool,
        rows,
        payload_size: int = DEFAULT_PAYLOAD_SIZE,
        name: str = "",
        fill_fraction: float = 1.0,
    ) -> "RelationStore":
        """Create and load a :class:`~repro.core.sets.Relation` (or the
        ``(tid, elements)`` pairs its constructor takes and checks, in any
        tid order), each tuple with a zero payload of ``payload_size``
        bytes: the relation's scan batches, which come in tid order, are
        encoded one at a time and :meth:`BTree.bulk_create_runs` writes
        each page once, full (nothing is ever inserted into a stored
        relation) unless ``fill_fraction`` (the testbed's 0.9) says less."""
        from ..core.sets import Relation  # the core package imports this one

        size = _chunk_size(pool)
        relation = rows if isinstance(rows, Relation) else Relation(rows, name)
        store = cls.__new__(cls)
        store.name = name
        store._tree = BTree.bulk_create_runs(
            pool, _sorted_runs(relation.scan_batches(), bytes(payload_size), size),
            fill_fraction,
        )
        store._count = len(relation)
        return store

    @property
    def meta_page_id(self) -> int:
        """Page id that re-opens this store via the constructor."""
        return self._tree.meta_page_id

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
        :func:`~.serialization.decode_tuple_buffer`).

        The leaves are read along the chain :data:`SCAN_LEAVES` at a time
        (:meth:`BTree.leaf_entries`: the pages :meth:`scan` reads, in its
        order) and each group is parsed at once; every chunk value of the
        group is gathered into one buffer, where a tuple's chunks lie
        contiguous, and the records are decoded from it in batches of
        exactly :data:`BATCH_TUPLES` whole tuples, the last batch smaller.
        A tuple whose chunks continue in the next group, and the tuples
        that do not fill a batch, wait for that group.
        """
        held = np.zeros(0, dtype=np.uint8)  # records not yet decoded
        starts = np.zeros(0, dtype=np.int64)  # where each begins in held
        last = None  # the tid of the last record, which may continue
        for entries in self._tree.leaf_entries(SCAN_LEAVES):
            if not entries.key_lengths.size:
                continue
            tids = _key_tids(entries)
            opens = np.empty(tids.size, dtype=bool)
            opens[0] = tids[0] != last
            opens[1:] = tids[1:] != tids[:-1]
            lengths = entries.value_lengths
            first_bytes = held.size + np.cumsum(lengths) - lengths
            starts = np.concatenate((starts, first_bytes[opens]))
            held = np.concatenate((held, _chunk_values(entries)))
            last = tids[-1]
            # Every record but the last is whole.
            ready = (starts.size - 1) // BATCH_TUPLES * BATCH_TUPLES
            yield from _decoded_buffer(held, starts[: ready + 1])
            held, starts = held[starts[ready]:], starts[ready:] - starts[ready]
        if starts.size:
            yield from _decoded_buffer(held, np.append(starts, held.size))

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
