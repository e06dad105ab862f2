"""The database catalog: named relations persisted in one page store.

A catalog is itself a B-tree whose meta page sits at a fixed, well-known
page id (the first two pages of a fresh store), mapping relation names to
the meta page ids of their :class:`~repro.storage.relation_store.RelationStore`
trees, their tuple counts, and the meta page ids of their
:class:`~repro.storage.posting_index.PostingIndex` trees.  That makes a
whole multi-relation database addressable by just a file path: open the
file, read the catalog, look up relations by name.

The catalog itself carries no crash-safety machinery: every page it
touches flows through the buffer pool to the disk manager, so when the
database wraps its disk in a :class:`~repro.storage.wal.WALDiskManager`,
catalog registration and removal become atomic for free.  The one
structural requirement is that :data:`CATALOG_META_PAGE` is a fixed page
id, so recovery never needs a separate pointer to find the catalog.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import ConfigurationError, StorageError
from .btree import BTree
from .buffer import BufferPool
from .serialization import decode_uvarint, encode_uvarint

__all__ = ["Catalog", "CATALOG_META_PAGE"]

#: BTree.create allocates (meta, root) in order, so a catalog created on a
#: fresh store always has its meta at page 0.
CATALOG_META_PAGE = 0


class Catalog:
    """Name → (relation meta page, size, posting-index meta page) mapping,
    stored in a B-tree: uvarints, the last absent for a relation without
    an index."""

    def __init__(self, pool: BufferPool):
        self.pool = pool
        if pool.disk.num_pages == 0:
            tree = BTree.create(pool)
            if tree.meta_page_id != CATALOG_META_PAGE:
                raise StorageError(
                    "catalog must own the store's first page; "
                    f"got meta page {tree.meta_page_id}"
                )
            self._tree = tree
        else:
            self._tree = BTree(pool, CATALOG_META_PAGE)

    @staticmethod
    def _encode(meta_page_id: int, size: int, index_page_id: int | None) -> bytes:
        record = encode_uvarint(meta_page_id) + encode_uvarint(size)
        if index_page_id is None:
            return record
        return record + encode_uvarint(index_page_id)

    @staticmethod
    def _decode(record: bytes) -> tuple[int, int, int | None]:
        meta_page_id, offset = decode_uvarint(record, 0)
        size, offset = decode_uvarint(record, offset)
        # Records from before posting indexes end here: no index.
        index_page_id = (
            decode_uvarint(record, offset)[0] if offset < len(record) else None
        )
        return meta_page_id, size, index_page_id

    def register(
        self, name: str, meta_page_id: int, size: int,
        index_page_id: int | None = None,
    ) -> None:
        """Add or update one relation entry; ``index_page_id`` is the meta
        page of its posting index, if it has one."""
        if not name:
            raise ConfigurationError("relation name must be non-empty")
        self._tree.insert(
            name.encode(), self._encode(meta_page_id, size, index_page_id)
        )

    def lookup(self, name: str) -> tuple[int, int, int | None] | None:
        """Return (meta_page_id, tuple_count, index meta page or ``None``)
        or ``None``."""
        record = self._tree.get(name.encode())
        return None if record is None else self._decode(record)

    def unregister(self, name: str) -> bool:
        """Remove one entry; returns whether it existed."""
        return self._tree.delete(name.encode())

    def names(self) -> Iterator[str]:
        for key, __ in self._tree.items():
            yield key.decode()

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None

    def __len__(self) -> int:
        return sum(1 for __ in self.names())
