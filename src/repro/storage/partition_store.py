"""Partition data stored as portion pages under one portion index.

The paper found that appending to one variable-size record per partition
degrades as partitions grow, and that the efficient layout is to "split
each partition into portions of equal sizes, while still keeping the
partition in a single B-tree, and to use the combination of the portion
number and partition index as the key of the B-tree."  Its Berkeley DB
testbed would have kept each such portion on an overflow page: BDB moves
any item larger than about a quarter of a page off the leaf.  This module
implements that layout:

* A portion holds one page of fixed-width (signature, tid) entries.  A
  full portion is written to a page of its own the moment it fills.
* One B-tree per relation indexes all of its partitions.  Key =
  (partition index u32, portion number u32), so a partition's portions
  are contiguous in key order and can be range-scanned in batches.
  Value = a reference ``page id ‖ byte length`` to the portion's page or,
  for a partial portion small enough to be a B-tree record (about half a
  page), the entries inline on the leaf.
* The index is bulk-built at :meth:`PartitionStore.seal`, in key order:
  partitioning does no B-tree insert and no split.

A ``monolithic=True`` mode emulates the paper's rejected initial design
(one growing record per partition, rewritten on every append) so the
portioning optimization can be measured as an ablation.
"""

from __future__ import annotations

import struct
from typing import Iterator, Sequence

import numpy as np

from ..errors import ConfigurationError, SerializationError
from ..obs.registry import get_registry
from .btree import BTree
from .buffer import BufferPool
from .serialization import (
    decode_partition_entries,
    decode_partition_entry,
    encode_partition_entry,
    partition_entry_size,
)

__all__ = ["PartitionStore"]

#: Index values: a tag byte, then the entries inline or a page reference.
_INLINE, _ON_PAGE = b"\x00", b"\x01"
_PAGE_REF = struct.Struct(">QI")  # page id, byte length


def _portion_key(partition: int, portion: int) -> bytes:
    return partition.to_bytes(4, "big") + portion.to_bytes(4, "big")


class PartitionStore:
    """Write-then-scan store of (signature, tid) partition entries."""

    def __init__(
        self,
        pool: BufferPool,
        signature_bytes: int,
        num_partitions: int,
        portion_entries: int | None = None,
        monolithic: bool = False,
    ):
        if num_partitions < 1:
            raise ConfigurationError(f"need >= 1 partition, got {num_partitions}")
        if signature_bytes < 1:
            raise ConfigurationError("signature must be at least one byte")
        self.pool = pool
        self.signature_bytes = signature_bytes
        self.num_partitions = num_partitions
        self.monolithic = monolithic
        self.entry_size = partition_entry_size(signature_bytes)
        payload = pool.disk.payload_size
        self.portion_entries = portion_entries or max(1, payload // self.entry_size)
        if self.portion_entries * self.entry_size > payload:
            raise ConfigurationError(
                f"{self.portion_entries} entries of {self.entry_size} bytes "
                f"exceed the {payload}-byte page"
            )
        # Monolithic records are rewritten in place, so that tree exists
        # from the start; the portion index is built at seal().
        self._tree: BTree | None = BTree.create(pool) if monolithic else None
        # Cached handle: every portion written is a spill of buffered
        # partition entries to temporary pages — the ledger's "spill
        # bytes" resource.
        self._spill_counter = get_registry().counter(
            "setjoin_spill_bytes_total",
            "Partition-entry bytes spilled to temporary portions",
        )
        self._buffers: list[bytearray] = [bytearray() for __ in range(num_partitions)]
        self._portion_counts = [0] * num_partitions
        self._entry_counts = [0] * num_partitions
        self._index: list[tuple[bytes, bytes]] = []  # (key, value), seal sorts
        self._pages: list[int] = []  # portion pages, freed by drop()
        self._sealed = False
        self._dropped = False
        self._attached = False

    @staticmethod
    def _max_value_bytes(pool: BufferPool) -> int:
        # Must satisfy the B-tree's two-entries-per-node constraint.
        return (pool.disk.payload_size - 27) // 2 - 32

    # ------------------------------------------------------------------
    # Read-only reopen (the partition-parallel engine's worker path)
    # ------------------------------------------------------------------

    @property
    def meta_page_id(self) -> int:
        """Page id of the portion index's meta page.

        Together with the disk file this fully identifies a sealed store,
        so another process can :meth:`attach` a read-only view of it.
        """
        if self._tree is None:
            raise ConfigurationError(
                "the portion index is built by seal(); seal the store first"
            )
        return self._tree.meta_page_id

    @classmethod
    def attach(
        cls,
        pool: BufferPool,
        meta_page_id: int,
        signature_bytes: int,
        num_partitions: int,
        entry_counts: "list[int] | None" = None,
    ) -> "PartitionStore":
        """Open a read-only view of a sealed store through another pool.

        This is how parallel join workers see the partition data: each
        worker opens its own :class:`~repro.storage.pager.FileDiskManager`
        and :class:`BufferPool` over the same file and attaches at the
        store's :attr:`meta_page_id`, so no mutable state is shared with
        the parent or with sibling workers.  The view is born sealed;
        appending or dropping through it is rejected.
        """
        if signature_bytes < 1:
            raise ConfigurationError("signature must be at least one byte")
        if num_partitions < 1:
            raise ConfigurationError(f"need >= 1 partition, got {num_partitions}")
        store = cls.__new__(cls)
        store.pool = pool
        store.signature_bytes = signature_bytes
        store.num_partitions = num_partitions
        store.monolithic = False
        store.entry_size = partition_entry_size(signature_bytes)
        store.portion_entries = max(1, pool.disk.payload_size // store.entry_size)
        store._tree = BTree(pool, meta_page_id)
        store._buffers = []
        store._portion_counts = [0] * num_partitions
        store._entry_counts = (
            list(entry_counts) if entry_counts is not None
            else [0] * num_partitions
        )
        store._sealed = True
        store._dropped = False
        store._attached = True
        return store

    # ------------------------------------------------------------------
    # Write phase
    # ------------------------------------------------------------------

    def append(self, partition: int, signature: int, tid: int) -> None:
        """Append one (signature, tid) entry to a partition."""
        if self._sealed:
            raise ConfigurationError("partition store already sealed")
        self._check_partition(partition)
        entry = encode_partition_entry(signature, tid, self.signature_bytes)
        self._entry_counts[partition] += 1
        if self.monolithic:
            self._append_monolithic(partition, entry)
        else:
            self._append_run(partition, entry)

    def append_entries(
        self, partitions: "Sequence[int] | np.ndarray", raw: bytes
    ) -> None:
        """Append a run of encoded entries, ``raw`` holding one fixed-width
        entry (see :func:`~.serialization.encode_partition_entry`) per
        element of ``partitions``, in order.

        Each partition receives its entries in run order, so its portions
        are those of as many :meth:`append` calls.  The run is grouped by
        partition with one stable sort and each partition's share appended
        as one slice, partitions in ascending order; which pages the full
        portions land on is all that differs from entry-by-entry appends.
        A partition out of range fails the run before any of it is
        appended.
        """
        if self._sealed:
            raise ConfigurationError("partition store already sealed")
        partitions = np.asarray(partitions, dtype=np.int64)
        size = self.entry_size
        if len(raw) != size * len(partitions):
            raise ConfigurationError(
                f"{len(partitions)} partitions for {len(raw)} bytes of "
                f"{size}-byte entries"
            )
        outside = (partitions < 0) | (partitions >= self.num_partitions)
        if outside.any():
            self._check_partition(int(partitions[outside.argmax()]))
        if self.monolithic:
            self._append_monolithic_run(partitions, raw)
            return
        order = np.argsort(partitions, kind="stable")
        grouped = np.frombuffer(raw, dtype=f"V{size}")[order].tobytes()
        counts = np.bincount(partitions, minlength=self.num_partitions)
        present = np.flatnonzero(counts)
        ends = np.cumsum(counts)[present].tolist()
        for partition, count, end in zip(
            present.tolist(), counts[present].tolist(), ends
        ):
            self._entry_counts[partition] += count
            self._append_run(partition, grouped[(end - count) * size : end * size])

    def _check_partition(self, partition: int) -> None:
        if not 0 <= partition < self.num_partitions:
            raise ConfigurationError(
                f"partition {partition} out of range 0..{self.num_partitions - 1}"
            )

    def _append_run(self, partition: int, run: bytes) -> None:
        """Buffer ``run`` for ``partition``, writing out every portion
        it fills."""
        buffer = self._buffers[partition]
        buffer += run
        full = self.portion_entries * self.entry_size
        if len(buffer) < full:
            return
        cut = len(buffer) - len(buffer) % full
        for start in range(0, cut, full):
            self._write_portion(partition, buffer[start : start + full])
        del buffer[:cut]

    def _write_portion(self, partition: int, run: bytes) -> None:
        """Give ``run`` the next portion number of ``partition``: inline in
        the index if it fits a B-tree record, else on a page of its own."""
        key = _portion_key(partition, self._portion_counts[partition])
        self._portion_counts[partition] += 1
        if len(run) >= self._max_value_bytes(self.pool):
            frame = self.pool.new_page()
            self._pages.append(frame.page_id)
            frame.data[: len(run)] = run
            self.pool.unpin(frame.page_id, dirty=True)
            value = _ON_PAGE + _PAGE_REF.pack(frame.page_id, len(run))
        else:
            value = _INLINE + run
        self._index.append((key, value))
        self._spill_counter.inc(len(run))

    def _append_monolithic_run(self, partitions: np.ndarray, raw: bytes) -> None:
        # The rejected design rewrites its record on every appended entry.
        size = self.entry_size
        for at, partition in enumerate(partitions.tolist()):
            self._entry_counts[partition] += 1
            self._append_monolithic(partition, raw[at * size : (at + 1) * size])

    def _append_monolithic(self, partition: int, entry: bytes) -> None:
        # Rejected design from the paper: read-modify-write one record.
        key = _portion_key(partition, 0)
        record = (self._tree.get(key) or _INLINE) + entry
        if len(record) > self._max_value_bytes(self.pool):
            raise ConfigurationError(
                "monolithic partition record overflowed; use portioned mode "
                "for partitions of this size"
            )
        self._tree.insert(key, record)
        self._spill_counter.inc(len(entry))

    def seal(self) -> None:
        """Write out all partial portions and bulk-build the portion
        index; the store becomes read-only."""
        if self._sealed:
            return
        if not self.monolithic:
            for partition, buffer in enumerate(self._buffers):
                if buffer:
                    self._write_portion(partition, bytes(buffer))
                    buffer.clear()
            # Written once and never updated: no slack for later inserts.
            self._tree = BTree.bulk_create(
                self.pool, sorted(self._index), fill_fraction=1.0
            )
            self._index = []
        self._sealed = True

    @property
    def dropped(self) -> bool:
        """Whether the store's pages have already been reclaimed."""
        return self._dropped

    def drop(self) -> int:
        """Free the store's pages (partitions are temporary): every portion
        page and the index, sealed or not.  Returns the number of pages
        reclaimed.  Idempotent; the store must not be written or scanned
        afterwards."""
        if self._attached:
            raise ConfigurationError(
                "a read-only attached view cannot drop the store; "
                "only the owning process reclaims partition pages"
            )
        if self._dropped:
            return 0
        self._sealed = True
        self._dropped = True
        freed = self._tree.destroy() if self._tree is not None else 0
        pages, self._pages = self._pages, []
        for page_id in pages:
            self.pool.free_page(page_id)
        return freed + len(pages)

    # ------------------------------------------------------------------
    # Read phase
    # ------------------------------------------------------------------

    def partition_size(self, partition: int) -> int:
        """Number of entries appended to ``partition``."""
        return self._entry_counts[partition]

    @property
    def total_entries(self) -> int:
        """Total (signature, tid) entries across all partitions.

        This is the numerator of the paper's replication factor.
        """
        return sum(self._entry_counts)

    def scan_partition(self, partition: int) -> Iterator[tuple[int, int]]:
        """Yield all (signature, tid) entries of one partition in order."""
        for batch in self.scan_partition_batches(partition):
            yield from batch

    def scan_partition_batches(
        self, partition: int, batch_portions: int = 8
    ) -> Iterator[list[tuple[int, int]]]:
        """Yield a partition's entries in multi-portion batches.

        The join phase reads "portions of partitions ... in batches to avoid
        random I/O"; ``batch_portions`` controls how many portions are
        grouped into one returned batch.
        """
        for run in self.scan_partition_records(partition, batch_portions):
            yield [
                decode_partition_entry(run, offset, self.signature_bytes)
                for offset in range(0, len(run), self.entry_size)
            ]

    def scan_partition_arrays(
        self, partition: int, batch_portions: int = 8
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The same batches as :meth:`scan_partition_batches`, decoded as
        ``(signatures, tids)`` arrays straight from the page bytes (see
        :func:`~.serialization.decode_partition_entries`)."""
        for run in self.scan_partition_records(partition, batch_portions):
            yield decode_partition_entries(run, self.signature_bytes)

    def scan_partition_records(
        self, partition: int, batch_portions: int = 8
    ) -> Iterator[bytes]:
        """Yield the raw entry run of each multi-portion batch."""
        if not self._sealed or self._dropped:
            raise ConfigurationError("seal() the store before scanning")
        start = _portion_key(partition, 0)
        end = _portion_key(partition + 1, 0)
        records: list[bytes] = []
        for __, value in self._tree.scan(start, end):
            records.append(self._portion_bytes(value))
            if len(records) >= batch_portions:
                yield b"".join(records)
                records = []
        if records:
            yield b"".join(records)

    def _portion_bytes(self, value: bytes) -> bytes:
        """The entry run an index value holds or refers to."""
        tag, body = value[:1], value[1:]
        if tag == _INLINE:
            run = body
        elif tag == _ON_PAGE and len(body) == _PAGE_REF.size:
            page_id, length = _PAGE_REF.unpack(body)
            payload = self.pool.disk.payload_size
            if length > payload:
                raise SerializationError(
                    f"portion of {length} bytes on page {page_id} exceeds "
                    f"the {payload}-byte page"
                )
            frame = self.pool.fetch(page_id)
            run = bytes(frame.data[:length])
            self.pool.unpin(page_id)
        else:
            raise SerializationError(f"corrupt portion index value {value[:16]!r}")
        if len(run) % self.entry_size:
            raise SerializationError("truncated partition entry")
        return run
