"""Set-valued tuples and in-memory relations.

A *relation with a set-valued attribute* is the paper's input object: each
tuple carries a tuple identifier (tid), a set of non-negative integers, and
(on disk) a fixed payload.  This module provides the lightweight in-memory
representation used by the algorithms, generators and analysis; the
disk-resident form lives in :mod:`repro.storage.relation_store`.

Non-integer element domains (strings, XML element names, course codes...)
are supported by hashing them onto integers first, exactly as the paper's
footnote suggests; see :func:`elements_from_values`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, Mapping

import numpy as np

from ..errors import ConfigurationError
from ..storage.relation_store import _TID_LIMIT, BATCH_TUPLES
from ..storage.serialization import _int64s, _segment_sort

__all__ = [
    "SetTuple",
    "Relation",
    "hash_value_to_element",
    "elements_from_values",
    "containment_pairs_nested_loop",
    "join_batches",
    "take_rows",
]


def hash_value_to_element(value, domain_size: int = 2**32) -> int:
    """Map an arbitrary hashable value onto the integer element domain.

    Deterministic across processes (unlike builtin ``hash``), which keeps
    generated datasets and examples reproducible.
    """
    digest = hashlib.blake2b(repr(value).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % domain_size


def elements_from_values(values: Iterable, domain_size: int = 2**32) -> frozenset[int]:
    """Encode a set of arbitrary values as a set of integer elements."""
    return frozenset(hash_value_to_element(v, domain_size) for v in values)


@dataclass(frozen=True)
class SetTuple:
    """One tuple: identifier plus set-valued attribute."""

    tid: int
    elements: frozenset[int]

    def __post_init__(self):
        if self.tid < 0:
            raise ConfigurationError(f"tid must be non-negative, got {self.tid}")
        if not isinstance(self.elements, frozenset):
            object.__setattr__(self, "elements", frozenset(self.elements))

    @property
    def cardinality(self) -> int:
        return len(self.elements)

    def is_subset_of(self, other: "SetTuple") -> bool:
        """The join predicate: ``self.elements ⊆ other.elements``."""
        return self.elements <= other.elements


class Relation:
    """An ordered collection of set-valued tuples with unique tids, held as
    three arrays (DESIGN.md, "One columnar relation"): ``tids``; every
    set's ``elements``, ascending within each set; and ``offsets``, set
    ``i`` being ``elements[offsets[i]:offsets[i + 1]]``.  The arrays are
    int64, or ``object`` arrays of Python ints where a value does not fit.

    ``tuples`` are :class:`SetTuple` rows or ``(tid, elements)`` pairs,
    read :data:`BATCH_TUPLES` at a time.  A tid or element that is not an
    integer (a ``bool`` is not) in ``[0, 2**64)``, or a repeated tid,
    raises :class:`ConfigurationError` naming the tid.  The rows that
    iteration and ``relation[tid]`` give are built on first use and kept.
    """

    def __init__(self, tuples: Iterable = (), name: str = ""):
        rows, batches = iter(tuples), []
        while batch := list(islice(rows, BATCH_TUPLES)):
            batches.append(_pair_arrays(batch, name))
        self._adopt(name, *join_batches(batches))

    @classmethod
    def from_arrays(cls, tids, elements, offsets, name: str = "") -> "Relation":
        """The relation of ``(tids, elements, offsets)`` arrays, checked as
        rows are (a set's elements in any order, repeats dropped)."""
        tids, offsets = _array_column(tids, name), np.asarray(offsets, dtype=np.int64)
        if (len(offsets) != len(tids) + 1 or offsets[0] != 0
                or offsets[-1] != len(elements) or np.any(np.diff(offsets) < 0)):
            raise ConfigurationError(
                f"relation {name!r}: offsets do not bound {len(tids)} sets")
        elements = _array_column(elements, name, tids.tolist(), offsets)
        relation = cls.__new__(cls)
        relation._adopt(name, tids, *_normalized(elements, offsets))
        return relation

    @classmethod
    def from_sets(cls, sets: Iterable[Iterable[int]], name: str = "",
                  start_tid: int = 0) -> "Relation":
        """Build a relation from raw sets, assigning sequential tids."""
        return cls(enumerate(sets, start_tid), name)

    @classmethod
    def from_mapping(cls, mapping: Mapping, name: str = "") -> "Relation":
        """Build a relation from ``{tid: iterable_of_elements}``."""
        return cls(((tid, mapping[tid]) for tid in sorted(mapping)), name)

    @classmethod
    def _of_batches(cls, batches: list, name: str = "") -> "Relation":
        """Trusted store-scan batches, in any tid order: only repeats are checked."""
        relation = cls.__new__(cls)
        relation._adopt(name, *join_batches(batches))
        return relation

    def _adopt(self, name, tids, elements, offsets) -> None:
        # The stable tid order finds repeats; scans and fetches read in it.
        order = np.argsort(tids, kind="stable")
        ordered = tids[order]
        repeated = np.flatnonzero(ordered[1:] == ordered[:-1])
        if repeated.size:
            raise ConfigurationError(
                f"duplicate tid {ordered[repeated[0]]} in relation {name!r}")
        self.name, self._arrays, self._order = name, (tids, elements, offsets), order
        self._by_tid: dict[int, SetTuple] | None = None  # the rows, in order

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(tids, elements, offsets)``, as the tuples came; read-only."""
        if self._arrays is None:  # rows were added since the last read
            rows = list(self._by_tid.values())
            self._adopt(self.name, *join_batches([_pair_arrays(rows, self.name)]))
        return self._arrays

    def scan_batches(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The tuples :data:`BATCH_TUPLES` at a time in tid order, as
        :meth:`RelationStore.scan_batches` yields them."""
        arrays = self.arrays  # after an add, this rebuilds the order too
        return _gathered(arrays, self._order)

    def fetch_batches(self, tids: Iterable[int]
                      ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The rows among ``tids``, in tid order, as
        :meth:`RelationStore.fetch_batches` yields them; absent tids and
        values that cannot be tids are skipped."""
        arrays = self.arrays
        stored, order = arrays[0], self._order
        # An int64 column holds no tid past int64; an object one any tid.
        limit = _TID_LIMIT if stored.dtype == object else 1 << 63
        keys = np.array(sorted({tid for tid in tids if 0 <= tid < limit}),
                        dtype=stored.dtype)
        at = np.searchsorted(stored, keys, sorter=order)
        inside = at < len(stored)
        rows = order[at[inside]]
        return _gathered(arrays, rows[stored[rows] == keys[inside]])

    def take(self, rows: np.ndarray) -> "Relation":
        """The relation of the tuples at positions ``rows``, in that order."""
        relation = Relation.__new__(Relation)
        relation._adopt(self.name, *take_rows(*self.arrays, rows))
        return relation

    def _rows(self) -> dict[int, SetTuple]:
        if self._by_tid is None:
            tids, elements, offsets = self.arrays
            flat, bounds = elements.tolist(), offsets.tolist()
            self._by_tid = {tid: SetTuple(tid, frozenset(flat[lo:hi]))
                            for tid, lo, hi in zip(tids.tolist(), bounds, bounds[1:])}
        return self._by_tid

    def add(self, row: SetTuple) -> None:
        """Append a row, checked as the constructor's are.  The arrays are
        rebuilt on their next read: build a large relation at once."""
        _pair_arrays([row], self.name)
        if row.tid in self:
            raise ConfigurationError(f"duplicate tid {row.tid} in relation {self.name!r}")
        self._by_tid[row.tid] = row
        self._arrays = None

    def __iter__(self) -> Iterator[SetTuple]:
        return iter(self._rows().values())

    def __len__(self) -> int:
        return len(self._by_tid) if self._arrays is None else len(self._arrays[0])

    def __getitem__(self, tid: int) -> SetTuple:
        return self._rows()[tid]

    def __contains__(self, tid: int) -> bool:
        return tid in self._rows()

    def tids(self) -> list[int]:
        return self.arrays[0].tolist()

    def average_cardinality(self) -> float:
        """Mean set cardinality (the paper's θ for this relation)."""
        return int(self.arrays[2][-1]) / len(self) if len(self) else 0.0

    def max_cardinality(self) -> int:
        return int(np.diff(self.arrays[2]).max(initial=0))

    def domain_bound(self) -> int:
        """Smallest D such that all elements lie in [0, D)."""
        elements = self.arrays[1]
        return int(elements.max()) + 1 if elements.size else 1

    def sample_cardinality(self, sample_size: int, seed: int = 0) -> float:
        """Estimate average cardinality from a sample, as the optimizer's
        step 2 ("using sampling or available statistics") prescribes."""
        import random

        if not len(self):
            return 0.0
        size = min(sample_size, len(self))
        sample = random.Random(seed).sample(range(len(self)), size)
        return int(np.diff(self.arrays[2])[sample].sum()) / size


def _gathered(arrays: tuple, rows: np.ndarray) -> Iterator[tuple]:
    """The ``rows`` of ``(tids, elements, offsets)`` arrays, in that order,
    :data:`BATCH_TUPLES` at a time."""
    return (take_rows(*arrays, rows[first : first + BATCH_TUPLES])
            for first in range(0, len(rows), BATCH_TUPLES))


def take_rows(tids: np.ndarray, elements: np.ndarray, offsets: np.ndarray,
              rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``rows`` of a ``(tids, elements, offsets)`` relation, in that
    order, as one such relation."""
    starts, sizes = offsets[rows], offsets[rows + 1] - offsets[rows]
    kept = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(sizes, out=kept[1:])
    gather = np.arange(kept[-1]) + np.repeat(starts - kept[:-1], sizes)
    return tids[rows], elements[gather], kept


def join_batches(batches: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(tids, elements, offsets)`` batches as one such relation."""
    empty = np.zeros(0, dtype=np.int64)
    tids, elements, sizes = map(np.concatenate, zip(
        *[(t, e, np.diff(o)) for t, e, o in batches] or [(empty,) * 3]))
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return tids, elements, offsets


def _column(values: list, name: str, tids: list | None = None,
            offsets: np.ndarray | None = None) -> np.ndarray:
    """Checked tids, or elements of the sets ``offsets`` bounds in a batch
    with ``tids``, as int64 or (where one does not fit) ``object``."""
    column = _int64s(values)
    if (column.dtype == np.int64 and set(map(type, values)) <= {int}
            and (not column.size or column.min() >= 0)):
        return column
    bad = next((at for at, value in enumerate(values) if not (
        isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        and 0 <= value < 1 << 64)), None)
    if bad is None:
        return column if column.dtype == np.int64 else np.array(
            list(map(int, values)), dtype=object)
    if tids is None:
        raise ConfigurationError(
            f"relation {name!r}: tuple id {values[bad]!r} is not an integer in [0, 2**64)")
    tid = tids[int(np.searchsorted(offsets, bad, side="right")) - 1]
    raise ConfigurationError(f"relation {name!r}: tuple id {tid!r} holds "
                             f"{values[bad]!r}, not an integer in [0, 2**64)")


def _array_column(values, name: str, *owners) -> np.ndarray:
    """:func:`_column` of an array, at once for a non-negative int64 one."""
    values = np.asarray(values)
    if values.dtype == np.int64 and not (values.size and values.min() < 0):
        return values
    return _column(values.tolist(), name, *owners)


def _pair_arrays(rows: list, name: str) -> tuple:
    """Checked arrays of :class:`SetTuple` rows or ``(tid, elements)`` pairs."""
    pairs = [(row.tid, row.elements) if isinstance(row, SetTuple) else row
             for row in rows]
    tids = [tid for tid, __ in pairs]
    sets = [elements if hasattr(elements, "__len__") else list(elements)
            for __, elements in pairs]
    offsets = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, sets), np.int64, len(sets)), out=offsets[1:])
    checked = _column(tids, name)
    elements = _column(list(chain.from_iterable(sets)), name, tids, offsets)
    return (checked, *_normalized(elements, offsets))


def _normalized(elements: np.ndarray, offsets: np.ndarray) -> tuple:
    """Each set's elements ascending, repeats dropped."""
    owners = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    elements = _segment_sort(elements, owners)
    kept = np.concatenate(([True], (elements[1:] != elements[:-1])
                           | (owners[1:] != owners[:-1])))[:len(elements)]
    if not kept.all():
        elements, offsets = elements[kept], np.zeros_like(offsets)
        np.cumsum(np.bincount(owners[kept], minlength=len(offsets) - 1), out=offsets[1:])
    return elements, offsets


def containment_pairs_nested_loop(
    lhs: Relation, rhs: Relation
) -> set[tuple[int, int]]:
    """Reference result: all (r.tid, s.tid) with r ⊆ s, by brute force.

    Quadratic; used as ground truth in tests and tiny examples.
    """
    return {
        (r.tid, s.tid)
        for r in lhs
        for s in rhs
        if r.elements <= s.elements
    }
