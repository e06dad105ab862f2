"""The posting index of a stored relation: element → the tids holding it.

Bouros et al., *Set Containment Join Revisited*, answer "which sets
contain these elements" from an inverted index on the stored relation,
intersecting the elements' posting lists rarest first.  A
:class:`PostingIndex` is that index as a second B-tree beside a cataloged
relation, so a probe reads a few posting lists instead of every tuple.

Layout: the relation's chunk-key layout with the element in the tid's
place.  The key is ``element (8 bytes, big-endian) ‖ chunk number (4
bytes)``; the element's ascending tids are one record of the set codec
(:func:`~.serialization.encode_set`: the count, then delta varints),
split into chunks of the relation's chunk size, the way
``RelationStore`` splits a long tuple record.

The index is built once, in bulk, from the stored relation, in the
transaction that creates the relation (``SetJoinDatabase.create_relation``),
and destroyed with it.  Only values that fit int64 have a key; a relation
holding a wider tid or element gets no index (:meth:`PostingIndex.build`
returns ``None``) and is probed by scanning.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from .btree import BTree
from .buffer import BufferPool
from .relation_store import RelationStore, _chunk_range, _chunk_size, _chunked_run
from .serialization import _bounds_of, decode_set_buffer, encode_set_buffer

__all__ = ["PostingIndex"]

#: Keys are elements below this: the set codec's values are int64.
_ELEMENT_LIMIT = 1 << 63


class PostingIndex:
    """The element → tids B-tree of one stored relation."""

    def __init__(self, pool: BufferPool, meta_page_id: int):
        self._tree = BTree(pool, meta_page_id)

    @property
    def meta_page_id(self) -> int:
        return self._tree.meta_page_id

    @classmethod
    def build(cls, pool: BufferPool, store: RelationStore) -> "PostingIndex | None":
        """Bulk-build the index of ``store`` from its stored tuples.

        One :meth:`RelationStore.scan_batches` pass gives each batch's
        postings as arrays (every tid repeated once per element it holds);
        a stable sort by element keeps each list in scan order, which is
        tid order; the lists are encoded at once and go to
        :meth:`BTree.bulk_create_runs` as one run of chunk entries.
        Returns ``None``, building nothing, when a tid or element does
        not fit int64.
        """
        empty = np.zeros(0, dtype=np.int64)
        tids, elements = [empty], [empty]
        for batch_tids, batch_elements, offsets in store.scan_batches():
            if batch_tids.dtype == object or batch_elements.dtype == object:
                return None
            tids.append(np.repeat(batch_tids, np.diff(offsets)))
            elements.append(batch_elements)
        elements = np.concatenate(elements)
        order = np.argsort(elements, kind="stable")
        tids, elements = np.concatenate(tids)[order], elements[order]
        firsts = np.flatnonzero(np.diff(elements, prepend=-1))
        records, bounds = encode_set_buffer(tids, np.append(firsts, elements.size))
        run = _chunked_run(elements[firsts], records, bounds, _chunk_size(pool))
        # Nothing is ever inserted into the index, so its leaves are full.
        tree = BTree.bulk_create_runs(pool, [run], fill_fraction=1.0)
        return cls(pool, tree.meta_page_id)

    def probe(self, query: "list[int]") -> "list[int]":
        """Tids of the sets holding every element of ``query`` (distinct
        ints, ascending, at least one), in ascending order.

        The query's lists are read in one forward pass over the index
        (:meth:`BTree.scan_ranges`), which stops at the first element no
        set holds; then the shortest list is intersected with the others
        in ascending length, each step one ``searchsorted`` of what is
        left, until the lists are done or nothing is left.
        """
        if query[0] < 0 or query[-1] >= _ELEMENT_LIMIT:
            return []  # no stored set holds such an element
        lists = []
        for chunks in self._tree.scan_ranges(map(_chunk_range, query)):
            if not chunks:
                return []
            lists.append(b"".join(chunks))
        tids, offsets = decode_set_buffer(b"".join(lists), _bounds_of(lists))
        lengths = np.diff(offsets)
        order = np.argsort(lengths, kind="stable")
        found = tids[offsets[order[0]] : offsets[order[0] + 1]]
        for index in order[1:]:
            posting = tids[offsets[index] : offsets[index + 1]]
            at = np.minimum(np.searchsorted(posting, found), posting.size - 1)
            found = found[posting[at] == found]
            if not found.size:
                break
        return found.tolist()

    def postings(self) -> int:
        """How many postings the index holds, every list decoded, after
        every page of the tree (internal nodes too) is read, so a damaged
        page anywhere raises."""
        for __ in self._tree.page_ids():
            pass
        lists = [
            b"".join(value for __, value in chunks)
            for __, chunks in groupby(
                self._tree.items(), lambda item: item[0][:8]
            )
        ]
        return int(decode_set_buffer(b"".join(lists), _bounds_of(lists))[1][-1])
