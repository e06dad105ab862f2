"""Partition data stored as portioned B-tree records.

The paper found that appending to one variable-size record per partition
degrades as partitions grow, and that the efficient layout is to "split
each partition into portions of equal sizes, while still keeping the
partition in a single B-tree, and to use the combination of the portion
number and partition index as the key of the B-tree."  This module
implements exactly that layout:

* One B-tree per relation holds all of its partitions.
* Key = (partition index u32, portion number u32), so a partition's
  portions are contiguous in key order and can be range-scanned in batches.
* Value = a packed run of fixed-width (signature, tid) entries.

A ``monolithic=True`` mode emulates the paper's rejected initial design
(one growing record per partition, rewritten on every append) so the
portioning optimization can be measured as an ablation.
"""

from __future__ import annotations

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

_KEY_BYTES = 8


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
        max_value = self._max_value_bytes(pool)
        default = max(1, max_value // self.entry_size)
        self.portion_entries = portion_entries or default
        if self.portion_entries * self.entry_size > max_value:
            raise ConfigurationError(
                f"{self.portion_entries} entries of {self.entry_size} bytes "
                f"exceed the {max_value}-byte record limit"
            )
        self._tree = BTree.create(pool)
        # Cached handle: every portion flush is a spill of buffered
        # partition entries to temporary B-tree records — the ledger's
        # "spill bytes" resource.
        self._spill_counter = get_registry().counter(
            "setjoin_spill_bytes_total",
            "Partition-entry bytes spilled to temporary B-tree records",
        )
        self._buffers: list[bytearray] = [bytearray() for __ in range(num_partitions)]
        self._portion_counts = [0] * num_partitions
        self._entry_counts = [0] * num_partitions
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
        """Page id of the backing B-tree's meta page.

        Together with the disk file this fully identifies a sealed store,
        so another process can :meth:`attach` a read-only view of it.
        """
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
        store.portion_entries = max(
            1, cls._max_value_bytes(pool) // store.entry_size
        )
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
        self._append_entry(
            partition, encode_partition_entry(signature, tid, self.signature_bytes)
        )

    def append_entries(self, partitions: "Sequence[int]", raw: bytes) -> None:
        """Append a run of encoded entries, ``raw`` holding one fixed-width
        entry (see :func:`~.serialization.encode_partition_entry`) per
        element of ``partitions``, in order.

        The entries take effect one by one in that order — a portion is
        flushed the moment its partition's buffer fills — so the records
        and their B-tree insert order are those of as many :meth:`append`
        calls.  A partition out of range fails the run before any of it is
        appended.
        """
        if self._sealed:
            raise ConfigurationError("partition store already sealed")
        if partitions and not (
            0 <= min(partitions) and max(partitions) < self.num_partitions
        ):
            for partition in partitions:
                self._check_partition(partition)
        size = self.entry_size
        if len(raw) != size * len(partitions):
            raise ConfigurationError(
                f"{len(partitions)} partitions for {len(raw)} bytes of "
                f"{size}-byte entries"
            )
        append_entry = self._append_entry
        for offset, partition in zip(range(0, len(raw), size), partitions):
            append_entry(partition, raw[offset : offset + size])

    def _check_partition(self, partition: int) -> None:
        if not 0 <= partition < self.num_partitions:
            raise ConfigurationError(
                f"partition {partition} out of range 0..{self.num_partitions - 1}"
            )

    def _append_entry(self, partition: int, entry: bytes) -> None:
        self._entry_counts[partition] += 1
        if self.monolithic:
            self._append_monolithic(partition, entry)
            return
        buffer = self._buffers[partition]
        buffer += entry
        if len(buffer) >= self.portion_entries * self.entry_size:
            self._flush_portion(partition)

    def _append_monolithic(self, partition: int, entry: bytes) -> None:
        # Rejected design from the paper: read-modify-write one record.
        key = _portion_key(partition, 0)
        existing = self._tree.get(key) or b""
        record = existing + entry
        if len(record) > self._max_value_bytes(self.pool):
            raise ConfigurationError(
                "monolithic partition record overflowed; use portioned mode "
                "for partitions of this size"
            )
        self._tree.insert(key, record)
        self._spill_counter.inc(len(entry))

    def _flush_portion(self, partition: int) -> None:
        buffer = self._buffers[partition]
        if not buffer:
            return
        key = _portion_key(partition, self._portion_counts[partition])
        self._tree.insert(key, bytes(buffer))
        self._spill_counter.inc(len(buffer))
        self._portion_counts[partition] += 1
        buffer.clear()

    def seal(self) -> None:
        """Flush all partial portions; the store becomes read-only."""
        if self._sealed:
            return
        if not self.monolithic:
            for partition in range(self.num_partitions):
                self._flush_portion(partition)
        self._sealed = True

    @property
    def dropped(self) -> bool:
        """Whether the store's pages have already been reclaimed."""
        return self._dropped

    def drop(self) -> int:
        """Free the store's pages (partitions are temporary); returns the
        number of pages reclaimed.  Idempotent; the store must not be
        written or scanned afterwards."""
        if self._attached:
            raise ConfigurationError(
                "a read-only attached view cannot drop the store; "
                "only the owning process reclaims partition pages"
            )
        if self._dropped:
            return 0
        self._sealed = True
        self._dropped = True
        return self._tree.destroy()

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
        if not self._sealed:
            raise ConfigurationError("seal() the store before scanning")
        start = _portion_key(partition, 0)
        end = _portion_key(partition + 1, 0)
        records: list[bytes] = []
        for __, record in self._tree.scan(start, end):
            if len(record) % self.entry_size:
                raise SerializationError("truncated partition entry")
            records.append(record)
            if len(records) >= batch_portions:
                yield b"".join(records)
                records = []
        if records:
            yield b"".join(records)
