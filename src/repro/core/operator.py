"""The disk-based set-containment-join operator.

This is the reproduction of the paper's testbed operator: it is built so
that "just the actual partitioning algorithm can be exchanged, other
conditions remaining equal".  A join runs in three phases:

1. **Partitioning** -- scan each stored relation once, compute each
   tuple's signature, ask the partitioner for its partition(s) and append
   ``(signature, tid)`` entries to the per-relation partition stores
   (page-sized portions under one B-tree index, as in the paper).

2. **Joining** -- for each partition pair, compare signatures with a block
   nested loop.  Portions are read in batches to avoid random I/O; if a
   partition's R side exceeds the in-memory block budget, the S side is
   re-scanned per block (classic block-nested-loop behaviour, matching the
   paper's "large partitions that do not fit into the memory available").
   Pairs passing the bitwise-inclusion filter become candidates.

3. **Verification** -- candidate tuple identifiers are sorted and the
   corresponding tuples fetched from the relation B-trees in one forward
   pass each (sorted fetches avoid random I/O, as in the paper), then
   tested exactly -- every element of r found in s -- to eliminate false
   positives.  When the partition scans saw no element at or above the
   signature width, each element has a bit of its own, the filter is
   exact and the candidates are the result: nothing is fetched.

There is one comparison kernel, the blocked one of :func:`compare_packed`
over packed partition entries.  The scalar loop of :func:`compare_block`'s
``"python"`` branch is its oracle: the same comparison counts and
candidate order, one Python step per comparison.
"""

from __future__ import annotations

import time
from contextlib import suppress
from itertools import compress
from numbers import Integral
from typing import Iterable

import numpy as np

from ..errors import ConfigurationError, SetJoinError
from ..obs.registry import get_registry
from ..obs.trace import current_tracer, use_tracer
from ..parallel.executor import Execution
from ..storage.buffer import BufferPool
from ..storage.pager import DiskManager, FileDiskManager, InMemoryDiskManager
from ..storage.partition_store import PartitionStore
from ..storage.relation_store import DEFAULT_PAYLOAD_SIZE, RelationStore
from ..storage.serialization import decode_partition_entries
from .metrics import JoinMetrics, PhaseMetrics
from .partitioning import Partitioner
from .sets import Relation
from .signatures import (
    DEFAULT_SIGNATURE_BITS,
    pack_signatures,
    signature_matrix,
)

__all__ = [
    "Testbed", "SetContainmentJoin", "check_join_options", "run_disk_join",
    "compare_block", "compare_packed", "join_partition",
    "partition_relation", "verify_pairs",
]

#: Leaf fill of the testbed's relations: the layout every committed page
#: count of a testbed join (``benchmarks/BENCH_seed.json``) was taken on.
TESTBED_FILL = 0.9

#: ``(signatures, tids)``, the signatures as :func:`pack_signatures` words.
PackedBlock = tuple[np.ndarray, np.ndarray]

# Tiles of the blocked kernel: its dense temporaries are sized by the tile
# (the survivor bitmap is _R_TILE x _S_TILE bits), never by the block.  Store
# batches are a few hundred entries, so _S_TILE only ever splits inline and
# memory-resident partitions.
_R_TILE = 1024
_S_TILE = 4096
#: set bits per R signature the index is probed with before survivors are
#: confirmed exactly.
_PREFILTER_DEPTH = 8


def compare_block(
    engine: str,
    signature_bits: int,
    r_block: "list[tuple[int, int]]",
    s_batches: "Iterable[list[tuple[int, int]]]",
    add,
) -> int:
    """Compare one R block against an S partition's batches.

    ``add(r_tid, s_tid)`` is called for every pair passing the
    bitwise-inclusion filter, S-major and in R order within one S
    signature; the number of signature comparisons performed is returned.
    ``"python"`` is the scalar loop every other path is tested against;
    ``"numpy"`` packs the entries for the kernel of :func:`compare_packed`.
    """
    if engine == "numpy":
        return compare_packed(
            signature_bits,
            _pack_entries(r_block, signature_bits),
            (_pack_entries(batch, signature_bits) for batch in s_batches),
            add,
        )
    comparisons = 0
    for s_batch in s_batches:
        for s_sig, s_tid in s_batch:
            not_s = ~s_sig
            for r_sig, r_tid in r_block:
                comparisons += 1
                if r_sig & not_s == 0:
                    add(r_tid, s_tid)
    return comparisons


def _pack_entries(entries, signature_bits: int) -> PackedBlock:
    return (
        pack_signatures([signature for signature, __ in entries], signature_bits),
        np.array([tid for __, tid in entries], dtype=np.int64),
    )


def compare_packed(
    signature_bits: int,
    r_block: PackedBlock,
    s_batches: "Iterable[PackedBlock]",
    add,
) -> int:
    """:func:`compare_block` over packed blocks: the blocked signature
    kernel (DESIGN.md, "Blocked signature kernel").

    ``sig(r) ⊆ᵇ sig(s)`` iff ``s`` is in the intersection, over r's set
    bits ``b``, of the S tile's bitmap "has bit ``b``" — the rows of a
    bit-sliced index.  An R tile ANDs the rows of each r's first
    ``_PREFILTER_DEPTH`` set bits and reads the surviving pairs off the
    nonzero words; only a tile holding an r with more set bits confirms
    them with the exact ``r & ~s == 0``.  Every r meets every s: x = |R|·|S|.
    """
    r_words, r_tids = r_block
    probes = _probe_rows(r_words)
    comparisons = 0
    for s_words, s_tids in s_batches:
        comparisons += len(r_tids) * len(s_tids)
        for s_lo in range(0, len(s_tids), _S_TILE):
            tile_words = s_words[s_lo : s_lo + _S_TILE]
            index = _bit_sliced_index(tile_words)
            hits_r, hits_s = [], []
            for r_lo, rows, exact in probes:
                survivors = index[rows[0]]
                for level in rows[1:]:
                    survivors &= index[level]
                r_at, word_at = np.nonzero(survivors)
                if not len(r_at):
                    continue
                # Unpack just the nonzero words into their S positions.
                word_bits = np.unpackbits(
                    survivors[r_at, word_at].view(np.uint8).reshape(-1, 8),
                    axis=1,
                )
                which, bit_at = np.nonzero(word_bits)
                r_at = r_at[which] + r_lo
                s_at = word_at[which] * 64 + bit_at
                if exact:
                    confirmed = ~(r_words[r_at] & ~tile_words[s_at]).any(axis=1)
                    r_at, s_at = r_at[confirmed], s_at[confirmed]
                hits_r.append(r_at)
                hits_s.append(s_at)
            if hits_r:
                r_at, s_at = np.concatenate(hits_r), np.concatenate(hits_s)
                # Tiles come out (r, s)-sorted; callers see S-major order.
                order = np.argsort(s_at, kind="stable")
                for r_tid, s_tid in zip(
                    r_tids[r_at[order]].tolist(),
                    s_tids[s_lo + s_at[order]].tolist(),
                ):
                    add(r_tid, s_tid)
    return comparisons


def _probe_rows(r_words: np.ndarray) -> "list[tuple[int, np.ndarray, bool]]":
    """Per R tile: its offset, a ``(depth, tile)`` matrix naming the index
    row of each signature's first ``depth`` set bits (the all-ones padding
    row where it has fewer), and whether some signature has more."""
    pad_row = r_words.shape[1] * 64
    probes = []
    for lo in range(0, len(r_words), _R_TILE):
        bits = np.unpackbits(
            r_words[lo : lo + _R_TILE].view(np.uint8), axis=1, bitorder="little"
        )
        # 1-based rank of each set bit within its signature.
        ranks = np.cumsum(bits, axis=1, dtype=np.int32)
        deepest = int(ranks[:, -1].max())
        rows = np.full(
            (max(1, min(deepest, _PREFILTER_DEPTH)), len(bits)),
            pad_row,
            dtype=np.int32,
        )
        r_at, bit_at = np.nonzero(bits & (ranks <= _PREFILTER_DEPTH))
        rows[ranks[r_at, bit_at] - 1, r_at] = bit_at
        probes.append((lo, rows, deepest > _PREFILTER_DEPTH))
    return probes


def _bit_sliced_index(s_words: np.ndarray) -> np.ndarray:
    """``(signature bits + 1, ceil(n / 64))`` uint64: row ``b`` is the
    bitmap of the signatures with bit ``b`` set, the last row the bitmap
    of all of them (what a signature with fewer probe bits ANDs with)."""
    bits = np.unpackbits(s_words.view(np.uint8), axis=1, bitorder="little")
    bitmap_bytes = (len(s_words) + 7) // 8
    index = np.zeros(
        (bits.shape[1] + 1, 8 * ((len(s_words) + 63) // 64)), dtype=np.uint8
    )
    index[:-1, :bitmap_bytes] = np.packbits(bits.T, axis=1)
    index[-1, :bitmap_bytes] = np.packbits(np.ones(len(s_words), dtype=np.uint8))
    return index.view(np.uint64)


#: R entries one block of the block nested loop holds, the S side being
#: re-read once per block; also the batch an inline or memory-resident
#: partition's entry run is cut into.  A memory bound, not a knob: packed
#: at the default 160 bits a block is 32 bytes per entry, 6.4 MB.
_BLOCK_ENTRIES = 200_000
#: Portions one read of a sealed partition store returns at once ("reading
#: a batch of portions avoids random I/O").
_BATCH_PORTIONS = 8


def _entry_batches(
    source, partition: int, signature_bits: int
) -> "Iterable[tuple[np.ndarray, np.ndarray]]":
    """One side of a partition as ``(signatures, tids)`` byte-level batches.

    ``source`` is a sealed :class:`PartitionStore`, read in multi-portion
    batches, or — an inline or memory-resident partition — its entry run
    as bytes, cut every :data:`_BLOCK_ENTRIES` entries.
    """
    if not isinstance(source, (bytes, bytearray)):
        return source.scan_partition_arrays(partition, _BATCH_PORTIONS)
    signatures, tids = decode_partition_entries(source, (signature_bits + 7) // 8)
    return [
        (signatures[at : at + _BLOCK_ENTRIES], tids[at : at + _BLOCK_ENTRIES])
        for at in range(0, len(tids), _BLOCK_ENTRIES)
    ]


def join_partition(
    signature_bits: int, r_source, s_source, partition: int, add
) -> int:
    """Block-nested-loop one partition pair; returns its comparison count.

    The one joining loop of the serial operator and the partition-parallel
    workers (:mod:`repro.parallel.worker`): the S side is re-read, batch
    by batch, for every block of :data:`_BLOCK_ENTRIES` R entries.
    """
    return sum(
        compare_packed(
            signature_bits, r_block,
            _s_batches(s_source, partition, signature_bits), add,
        )
        for r_block in _r_blocks(r_source, partition, signature_bits)
    )


def _r_blocks(source, partition, signature_bits):
    """Group a partition's R side into memory-bounded packed blocks."""
    pending, entries = [], 0
    for batch in _entry_batches(source, partition, signature_bits):
        pending.append(batch)
        entries += len(batch[1])
        if entries >= _BLOCK_ENTRIES:
            yield _pack_batches(pending, signature_bits)
            pending, entries = [], 0
    if pending:
        yield _pack_batches(pending, signature_bits)


def _s_batches(source, partition, signature_bits):
    for signatures, tids in _entry_batches(source, partition, signature_bits):
        yield pack_signatures(signatures, signature_bits), tids


def _pack_batches(batches, signature_bits: int) -> PackedBlock:
    signatures, tids = zip(*batches)
    return (
        pack_signatures(np.concatenate(signatures), signature_bits),
        np.concatenate(tids),
    )


class Testbed:
    """A disk, a buffer pool and the two input relations: stored
    (:class:`RelationStore`), or held (:class:`~repro.core.sets.Relation`,
    read without a page; DESIGN.md, "One relation read surface").
    ``path=None`` keeps pages in memory (fast, identical I/O accounting);
    a file path gives real on-disk storage."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        path: str | None = None,
        page_size: int = 4096,
        buffer_pages: int = 512,
        buffer_policy: str = "lru",
    ):
        if path is None:
            self.disk: DiskManager = InMemoryDiskManager(page_size)
        else:
            self.disk = FileDiskManager(path, page_size)
        self.pool = BufferPool(self.disk, capacity=buffer_pages, policy=buffer_policy)
        self.relation_r: RelationStore | Relation | None = None
        self.relation_s: RelationStore | Relation | None = None

    @classmethod
    def from_components(
        cls,
        disk: DiskManager,
        pool: BufferPool,
        relation_r: RelationStore | Relation,
        relation_s: RelationStore | Relation,
    ) -> "Testbed":
        """Wrap pre-existing storage components (e.g. a database's) so the
        operator can run over already-stored or held relations."""
        testbed = cls.__new__(cls)
        testbed.disk = disk
        testbed.pool = pool
        testbed.relation_r = relation_r
        testbed.relation_s = relation_s
        return testbed

    def load(
        self,
        lhs: Relation,
        rhs: Relation,
        payload_size: int = DEFAULT_PAYLOAD_SIZE,
    ) -> None:
        """Store both input relations (R = subset side, S = superset side).

        Each goes through :meth:`RelationStore.create`, which encodes the
        relation's arrays a batch at a time, orders the records by tid and
        builds the B-tree bottom-up (pages written once, no splits), its
        leaves filled to :data:`TESTBED_FILL`.  No row object is built.
        """
        self.relation_r = RelationStore.create(
            self.pool, lhs, payload_size, lhs.name or "R", TESTBED_FILL,
        )
        self.relation_s = RelationStore.create(
            self.pool, rhs, payload_size, rhs.name or "S", TESTBED_FILL,
        )
        self.pool.flush_all()

    def close(self) -> None:
        self.pool.flush_all()
        self.disk.close()

    def __enter__(self) -> "Testbed":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def partition_relation(
    relation: RelationStore | Relation,
    assign_batch,
    store: PartitionStore,
    signature_bits: int,
    resident: "list[bytearray] | tuple" = (),
) -> int:
    """The partition-scan loop (containment R and S, intersection join).

    One scan of ``relation``, a batch of tuples at a time and every step
    an array operation over the batch (DESIGN.md, "Columnar batch path"):
    the batch's signatures, the ``(rows, partitions)`` that
    ``assign_batch(elements, offsets)`` routes it to — a partitioner's
    ``assign_r_batch``/``assign_s_batch``, or a per-tuple rule under
    :func:`~.partitioning.assign_batch` — and one encoded entry per
    (tuple, partition), in the order a per-tuple loop would append them.
    Entries of the first ``len(resident)`` partitions go to their
    memory-resident runs, the rest to ``store``, which is sealed.
    Returns the largest element scanned, ``-1`` when there was none.
    """
    largest = -1
    pinned = len(resident)
    entry = np.dtype(
        [("signature", np.uint8, (store.signature_bytes,)), ("tid", ">u8")]
    )
    for tids, elements, offsets in relation.scan_batches():
        if len(elements):
            largest = max(largest, int(elements.max()))
        rows, partitions = assign_batch(elements, offsets)
        entries = np.empty(len(rows), dtype=entry)
        entries["signature"] = signature_matrix(
            elements, offsets, signature_bits
        )[rows]
        entries["tid"] = tids[rows]
        if pinned:
            for index in range(pinned):
                resident[index] += entries[partitions == index].tobytes()
            spilled = partitions >= pinned
            partitions, entries = partitions[spilled], entries[spilled]
        store.append_entries(partitions, entries.tobytes())
    store.seal()
    return largest


#: R elements one slice of the hit-count test expands and looks up at once.
#: A memory bound, not a knob: a slice's temporaries are ~33 bytes per
#: element, live beside both relations' fetched sets and the per-pair
#: arrays.  Measured on the benchmark's ``dense_verify`` candidates repeated
#: 40x (1.14 M pairs expanding to 4.6 M elements, 49 MB of per-pair arrays):
#: 2^12 elements 0.70 s and +0 MB, 2^16 0.55 s and +0 MB, 2^20 0.60 s and
#: +34 MB, unsliced 0.63 s and +141 MB; the benchmark's own 28 481 pairs
#: (113 924 elements) take 14-18 ms at any bound.
_VERIFY_SLICE_ELEMENTS = 1 << 16

#: ``(elements, offsets)``: set ``i`` is ``elements[offsets[i]:offsets[i + 1]]``,
#: ascending, as ``fetch_batches`` of a stored or held relation yields them.
_Sets = tuple[np.ndarray, np.ndarray]


def verify_pairs(
    testbed: Testbed,
    pairs: "list[tuple[int, int]]",
    required_hits: "int | None",
    metrics: JoinMetrics,
    span=None,
) -> set[tuple[int, int]]:
    """The fetch-and-verify step over distinct candidate ``pairs``.

    Fetches both sides' tuples once, in tid order and as flat arrays
    (sorted fetches read the relation forwards, as in the paper), counts
    ``|r ∩ s|`` for every pair in one vectorised pass and keeps the pairs
    with at least ``required_hits`` common elements — ``None`` meaning all
    of ``r``, i.e. containment.  Counts ``set_comparisons`` and
    ``false_positives``; ``span``, when given, learns how many distinct
    tuples each side fetched.
    """
    result: set[tuple[int, int]] = set()
    fetched_r = fetched_s = 0
    if pairs:
        r_side, s_side = zip(*pairs)
        r_rows, r_sets = _fetch_candidates(testbed.relation_r, r_side)
        s_rows, s_sets = _fetch_candidates(testbed.relation_s, s_side)
        fetched_r, fetched_s = len(r_sets[1]) - 1, len(s_sets[1]) - 1
        hits = _hit_counts(r_sets, s_sets, r_rows, s_rows)
        if required_hits is None:
            kept = hits == np.diff(r_sets[1])[r_rows]
        else:
            kept = hits >= required_hits
        result = set(compress(pairs, kept.tolist()))
    if span is not None:
        span.set(fetched_r=fetched_r, fetched_s=fetched_s)
    metrics.set_comparisons += len(pairs)
    metrics.false_positives += len(pairs) - len(result)
    return result


def _fetch_candidates(
    relation: RelationStore | Relation, tids: "tuple[int, ...]"
) -> tuple[np.ndarray, _Sets]:
    """One forward fetch of the distinct ``tids``: the fetched row of each
    of ``tids`` and the fetched sets, batches concatenated."""
    none = np.zeros(0, dtype=np.int64)
    found, elements, sizes = [none], [none], [none]
    for batch_tids, batch_elements, offsets in relation.fetch_batches(tids):
        found.append(batch_tids)
        elements.append(batch_elements)
        sizes.append(np.diff(offsets))
    found = np.concatenate(found)
    offsets = np.zeros(len(found) + 1, dtype=np.int64)
    np.cumsum(np.concatenate(sizes), out=offsets[1:])
    try:
        wanted = np.array(tids, dtype=np.int64)
    except OverflowError:
        wanted = np.array(tids, dtype=object)
    rows = np.searchsorted(found, wanted)
    if not len(found) or rows.max() == len(found) or (found[rows] != wanted).any():
        absent = min(set(tids).difference(found.tolist()))
        raise SetJoinError(
            f"candidate tuple {absent} is not in relation {relation.name!r}"
        )
    return rows, (np.concatenate(elements), offsets)


def _hit_counts(
    r_sets: _Sets, s_sets: _Sets, r_rows: np.ndarray, s_rows: np.ndarray
) -> np.ndarray:
    """``|r ∩ s|`` for each pair ``(r_rows[i], s_rows[i])`` of set rows.

    Every fetched S element becomes the key ``s_row * span + element`` —
    ascending as fetched, since rows and each row's elements are — and each
    pair's R elements are looked up under their pair's S row with one
    ``searchsorted`` per slice of :data:`_VERIFY_SLICE_ELEMENTS` expanded
    elements.  Values the keys cannot carry go through
    :func:`_scalar_hit_counts`.
    """
    (r_elements, r_offsets), (s_elements, s_offsets) = r_sets, s_sets
    if r_elements.dtype != np.int64 or s_elements.dtype != np.int64:
        return _scalar_hit_counts(r_sets, s_sets, r_rows, s_rows)
    span = 1 + max(
        int(r_elements.max(initial=0)), int(s_elements.max(initial=0))
    )
    s_count = len(s_offsets) - 1
    if s_count * span > np.iinfo(np.int64).max:
        return _scalar_hit_counts(r_sets, s_sets, r_rows, s_rows)
    s_keys = np.repeat(np.arange(s_count) * span, np.diff(s_offsets))
    s_keys += s_elements
    sentinel = np.append(s_keys, -1)  # what a lookup past the end reads

    sizes = np.diff(r_offsets)[r_rows]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    # A slice is the pairs whose expansion starts in one window, whole.
    cuts = (np.flatnonzero(np.diff(starts // _VERIFY_SLICE_ELEMENTS)) + 1).tolist()
    hits = np.empty(len(r_rows), dtype=np.int64)
    for lo, hi in zip([0, *cuts], [*cuts, len(r_rows)]):
        base = starts[lo]
        count = sizes[lo:hi]
        # Each expanded element's index into r_elements: its set's offset
        # plus its rank in the set.
        at = np.repeat(r_offsets[r_rows[lo:hi]] - (starts[lo:hi] - base), count)
        at += np.arange(ends[hi - 1] - base)
        wanted = np.repeat(s_rows[lo:hi] * span, count)
        wanted += r_elements[at]
        found = sentinel[np.searchsorted(s_keys, wanted)] == wanted
        running = np.zeros(len(found) + 1, dtype=np.int64)
        np.cumsum(found, out=running[1:])
        hits[lo:hi] = running[ends[lo:hi] - base] - running[starts[lo:hi] - base]
    return hits


def _scalar_hit_counts(
    r_sets: _Sets, s_sets: _Sets, r_rows: np.ndarray, s_rows: np.ndarray
) -> np.ndarray:
    """:func:`_hit_counts` a ``frozenset`` intersection at a time: its
    differential oracle, and the path of values wider than int64."""
    def as_sets(elements, offsets):
        flat, bounds = elements.tolist(), offsets.tolist()
        return [frozenset(flat[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]

    r, s = as_sets(*r_sets), as_sets(*s_sets)
    return np.array(
        [len(r[i] & s[j]) for i, j in zip(r_rows.tolist(), s_rows.tolist())],
        dtype=np.int64,
    )


def check_join_options(
    signature_bits=DEFAULT_SIGNATURE_BITS, workers=1, parallel_backend="serial",
    resident_partitions=0, spill_candidates=False,
) -> int:
    """Raise :class:`ConfigurationError` on options no join runs with,
    before anything is stored or placed; returns ``signature_bits`` as an
    ``int``.  Counts are integers, never a ``bool``."""
    from ..parallel.executor import BACKENDS

    for name, value, least in (
        ("signature_bits", signature_bits, 1),
        ("workers", workers, 1),
        ("resident_partitions", resident_partitions, 0),
    ):
        if (isinstance(value, bool) or not isinstance(value, Integral)
                or value < least):
            raise ConfigurationError(
                f"{name} must be an integer >= {least}, got {value!r}"
            )
    if parallel_backend not in BACKENDS:
        raise ConfigurationError(
            f"parallel_backend must be one of {BACKENDS}, got {parallel_backend!r}"
        )
    if workers > 1 and spill_candidates:
        raise ConfigurationError(
            "workers > 1 keeps candidates in worker memory; it takes no "
            "spill_candidates"
        )
    return int(signature_bits)


class SetContainmentJoin:
    """Executes R ⋈⊆ S on a :class:`Testbed` with a pluggable partitioner."""

    def __init__(
        self,
        testbed: Testbed,
        partitioner: Partitioner,
        signature_bits: int = DEFAULT_SIGNATURE_BITS,
        monolithic_partitions: bool = False,
        resident_partitions: int = 0,
        spill_candidates: bool = False,
        workers: int = 1,
        parallel_backend: str = "serial",
        execution: Execution = Execution(),
        tracer=None,
    ):
        """Configure the operator.

        Beyond the core knobs, two implementation options from the
        paper's Section 6 discussion are available:

        * ``resident_partitions`` — keep the first ``m`` partitions of
          both relations permanently in main memory instead of writing
          them to disk ("keeping a fixed number of partitions permanently
          in main memory improves the execution time when much memory is
          available").  Resident entries are counted separately in the
          metrics since they cost no partition I/O.
        * ``spill_candidates`` — separate the joining and verification
          phases by writing candidate tuple-identifier pairs to a
          temporary B-tree instead of holding them in memory ("first
          writing out potentially joining tuple identifiers of all
          partitions to disk may improve performance").

        ``workers``/``parallel_backend``/``execution`` engage the
        partition-parallel execution engine (:mod:`repro.parallel`):
        with ``workers > 1`` the joining phase's partition pairs are
        sharded across workers (largest-partition-first) and executed by
        the named backend (``"serial"``, ``"thread"`` or ``"process"``).
        ``workers=1`` (the default) takes the original single-threaded
        code path untouched.  Parallel execution keeps candidates in
        worker memory, so it is mutually exclusive with
        ``spill_candidates``.  Every option is checked here, by
        :func:`check_join_options`, before anything is stored.

        ``tracer`` is an optional :class:`repro.obs.trace.Tracer`; when
        given (or when an ambient tracer is active, see
        :func:`repro.obs.trace.use_tracer`) the run produces a span tree
        covering the three phases, every partition pair, buffer-pool
        misses and — for parallel runs — per-shard worker spans stitched
        under the joining phase.  Tracing never changes results or the
        paper's x/y accounting.
        """
        if testbed.relation_r is None or testbed.relation_s is None:
            raise ConfigurationError("testbed has no loaded relations")
        signature_bits = check_join_options(
            signature_bits, workers, parallel_backend,
            resident_partitions, spill_candidates,
        )
        self.testbed = testbed
        self.partitioner = partitioner
        self.signature_bits = signature_bits
        self.signature_bytes = (signature_bits + 7) // 8
        self.monolithic_partitions = monolithic_partitions
        self.resident_partitions = min(
            resident_partitions, partitioner.num_partitions
        )
        self.spill_candidates = spill_candidates
        self.workers = workers
        self.parallel_backend = parallel_backend
        self.execution = execution
        self.tracer = tracer
        #: the tracer run() resolved, before any phase starts.  Phases and
        #: the parallel engine read this instead of the ambient global,
        #: which is a shared slot and races when the dist coordinator runs
        #: shard joins on threads.
        self._run_tracer = None
        #: memory-resident partitions, each an entry run in the partition
        #: stores' own byte format (see encode_partition_entry).
        self._resident_r: list[bytearray] = []
        self._resident_s: list[bytearray] = []
        #: the largest element the partition scans read from R and S, -1
        #: for none; set by every run's partition phase.
        self._max_element = -1

    # ------------------------------------------------------------------

    def run(self, cold_cache: bool = True) -> tuple[set[tuple[int, int]], JoinMetrics]:
        """Execute the join; returns (result pairs, metrics).

        ``cold_cache`` drops the buffer pool first, reproducing the paper's
        "cold cache" measurement protocol.
        """
        if cold_cache:
            self.testbed.pool.drop_all()
        metrics = JoinMetrics(
            algorithm=self.partitioner.name,
            num_partitions=self.partitioner.num_partitions,
            r_size=len(self.testbed.relation_r),
            s_size=len(self.testbed.relation_s),
            signature_bits=self.signature_bits,
        )
        tracer = self.tracer if self.tracer is not None else current_tracer()
        self._run_tracer = tracer
        pool_before = self.testbed.pool.stats.snapshot()
        with use_tracer(tracer), tracer.span(
            "join",
            algorithm=metrics.algorithm,
            k=metrics.num_partitions,
            r_size=metrics.r_size,
            s_size=metrics.s_size,
            workers=self.workers,
        ) as root:
            parts_r, parts_s = self._partition_phase(metrics)
            candidates: _CandidateSink | None = None
            try:
                if self.workers > 1:
                    candidates = self._parallel_join_phase(
                        parts_r, parts_s, metrics
                    )
                else:
                    candidates = self._join_phase(parts_r, parts_s, metrics)
                # Partition data is temporary ("stored on disk
                # temporarily"); reclaim its pages before verification.
                self._drop_partitions(parts_r, parts_s)
                result = self._verification_phase(candidates, metrics)
            except BaseException:
                # Spill cleanup must run on the failure path too, so an
                # aborted join never strands temporary pages in a long-lived
                # database session.
                self._drop_partitions(parts_r, parts_s)
                if candidates is not None:
                    with suppress(SetJoinError):
                        candidates.dispose()
                raise
            metrics.result_size = len(result)
            pool_delta = self.testbed.pool.stats.delta(pool_before)
            metrics.buffer_hits += pool_delta.hits
            metrics.buffer_misses += pool_delta.misses
            root.set(
                results=metrics.result_size,
                signature_comparisons=metrics.signature_comparisons,
                replicated_signatures=metrics.replicated_signatures,
                candidates=metrics.candidates,
                buffer_hits=metrics.buffer_hits,
                buffer_misses=metrics.buffer_misses,
            )
        return result, metrics

    def _drop_partitions(
        self, parts_r: "PartitionStore | None", parts_s: "PartitionStore | None"
    ) -> None:
        """Best-effort, idempotent reclamation of temporary partition pages."""
        for store in (parts_r, parts_s):
            if store is not None and not store.dropped:
                with suppress(SetJoinError):
                    store.drop()
        self._resident_r = []
        self._resident_s = []

    # ------------------------------------------------------------------
    # Phase 1: partitioning
    # ------------------------------------------------------------------

    def _partition_phase(
        self, metrics: JoinMetrics
    ) -> tuple[PartitionStore, PartitionStore]:
        disk = self.testbed.disk
        pool = self.testbed.pool
        before = disk.stats.snapshot()
        started = time.perf_counter()

        resident = self.resident_partitions
        self._resident_r = [bytearray() for __ in range(resident)]
        self._resident_s = [bytearray() for __ in range(resident)]

        tracer = self._run_tracer
        self.partitioner.reset_route_stats()
        parts_r: PartitionStore | None = None
        parts_s: PartitionStore | None = None
        with tracer.span(
            "phase.partition", k=self.partitioner.num_partitions
        ) as span:
            try:
                with tracer.span("partition.scan_r", tuples=metrics.r_size):
                    parts_r = self._make_store()
                    largest_r = partition_relation(
                        self.testbed.relation_r, self.partitioner.assign_r_batch,
                        parts_r, self.signature_bits, self._resident_r,
                    )
                with tracer.span("partition.scan_s", tuples=metrics.s_size):
                    parts_s = self._make_store()
                    largest_s = partition_relation(
                        self.testbed.relation_s, self.partitioner.assign_s_batch,
                        parts_s, self.signature_bits, self._resident_s,
                    )
                self._max_element = max(largest_r, largest_s)
                pool.flush_all()
            except BaseException:
                self._drop_partitions(parts_r, parts_s)
                raise
            metrics.replicated_signatures = (
                parts_r.total_entries + parts_s.total_entries
            )
            metrics.resident_signatures = sum(
                map(len, self._resident_r + self._resident_s)
            ) // parts_r.entry_size
            metrics.partitioning = PhaseMetrics.from_io_delta(
                time.perf_counter() - started, disk.stats.delta(before)
            )
            span.set(
                replicated_signatures=metrics.replicated_signatures,
                resident_signatures=metrics.resident_signatures,
                page_reads=metrics.partitioning.page_reads,
                page_writes=metrics.partitioning.page_writes,
            )
            route_stats = self.partitioner.route_stats()
            if route_stats:
                span.set(**route_stats)
                registry = get_registry()
                for name, value in route_stats.items():
                    registry.counter(
                        f"setjoin_dcj_{name}_total",
                        f"DCJ routing: {name.replace('_', ' ')}",
                    ).inc(value)
        return parts_r, parts_s

    def _make_store(self) -> PartitionStore:
        return PartitionStore(
            self.testbed.pool,
            signature_bytes=self.signature_bytes,
            num_partitions=self.partitioner.num_partitions,
            monolithic=self.monolithic_partitions,
        )

    # ------------------------------------------------------------------
    # Phase 2: joining
    # ------------------------------------------------------------------

    def _join_phase(
        self,
        parts_r: PartitionStore,
        parts_s: PartitionStore,
        metrics: JoinMetrics,
    ) -> "_CandidateSink":
        disk = self.testbed.disk
        before = disk.stats.snapshot()
        started = time.perf_counter()
        if self.spill_candidates:
            candidates: _CandidateSink = _SpilledCandidates(self.testbed.pool)
        else:
            candidates = _SetCandidates()
        with self._run_tracer.span("phase.join") as span:
            for partition in range(self.partitioner.num_partitions):
                r_entries = self._partition_size(
                    parts_r, self._resident_r, partition
                )
                s_entries = r_entries and self._partition_size(
                    parts_s, self._resident_s, partition
                )
                if not s_entries:
                    continue
                r_side, s_side = parts_r, parts_s
                if partition < self.resident_partitions:
                    r_side = self._resident_r[partition]
                    s_side = self._resident_s[partition]
                with self._run_tracer.span(
                    "join.partition",
                    partition=partition,
                    r_entries=r_entries,
                    s_entries=s_entries,
                ) as pair_span:
                    comparisons = join_partition(
                        self.signature_bits, r_side, s_side, partition,
                        candidates.add,
                    )
                    metrics.signature_comparisons += comparisons
                    pair_span.set(comparisons=comparisons)
            metrics.candidates = len(candidates)
            metrics.joining = PhaseMetrics.from_io_delta(
                time.perf_counter() - started, disk.stats.delta(before)
            )
            span.set(
                comparisons=metrics.signature_comparisons,
                candidates=metrics.candidates,
                page_reads=metrics.joining.page_reads,
                page_writes=metrics.joining.page_writes,
            )
        return candidates

    def _parallel_join_phase(
        self,
        parts_r: PartitionStore,
        parts_s: PartitionStore,
        metrics: JoinMetrics,
    ) -> "_CandidateSink":
        """Joining phase over the partition-parallel engine.

        Shards the partition pairs across ``self.workers`` workers
        (largest-partition-first), runs them on the configured backend
        and merges the per-worker results deterministically.  The x/y
        accounting is preserved exactly: each partition pair is joined
        by exactly one worker with the same block-nested-loop kernel the
        serial path uses, so summed signature comparisons equal the
        serial count and the result set is identical.
        """
        from ..parallel.engine import run_parallel_join

        disk = self.testbed.disk
        before = disk.stats.snapshot()
        started = time.perf_counter()
        # run_parallel_join stamps the backend that ran (and why, if it
        # fell back to serial) on this span.
        with self._run_tracer.span("phase.join", workers=self.workers) as span:
            pairs, worker_metrics = run_parallel_join(self, parts_r, parts_s)
            candidates = _SetCandidates()
            for r_tid, s_tid in pairs:
                candidates.add(r_tid, s_tid)
            metrics.signature_comparisons += worker_metrics.signature_comparisons
            metrics.candidates = len(candidates)
            metrics.buffer_hits += worker_metrics.buffer_hits
            metrics.buffer_misses += worker_metrics.buffer_misses
            delta = disk.stats.delta(before)
            # Parent-side I/O (inline shard materialization) plus the I/O the
            # workers did through their own read-only storage views.
            metrics.joining = PhaseMetrics(
                time.perf_counter() - started,
                delta.page_reads + worker_metrics.joining.page_reads,
                delta.page_writes + worker_metrics.joining.page_writes,
            )
            # The per-shard timings the merge used to discard: each
            # shard's true wall seconds and worker-side page I/O.
            metrics.shard_joining = worker_metrics.shard_joining
            span.set(
                shards=len(metrics.shard_joining),
                comparisons=metrics.signature_comparisons,
                candidates=metrics.candidates,
                page_reads=metrics.joining.page_reads,
                page_writes=metrics.joining.page_writes,
            )
        return candidates

    def _partition_size(
        self, parts: PartitionStore, resident: "list[bytearray]",
        partition: int,
    ) -> int:
        """Entries of one side of a partition, memory-resident or stored."""
        if partition < self.resident_partitions:
            return len(resident[partition]) // parts.entry_size
        return parts.partition_size(partition)

    # ------------------------------------------------------------------
    # Phase 3: verification
    # ------------------------------------------------------------------

    def _verification_phase(
        self,
        candidates: "_CandidateSink",
        metrics: JoinMetrics,
    ) -> set[tuple[int, int]]:
        disk = self.testbed.disk
        before = disk.stats.snapshot()
        started = time.perf_counter()
        with self._run_tracer.span("phase.verify") as span:
            count = len(candidates)
            # Every element scanned below the width has a bit of its own:
            # the bitwise-inclusion filter is exact, a candidate a result.
            if self._max_element < self.signature_bits:
                result = candidates.pairs()
                candidates.dispose()
                metrics.proven_by_signature += count
                span.set(elided=True, proven=count, max_element=self._max_element)
            else:
                pairs = list(candidates.sorted_pairs())
                candidates.dispose()
                result = verify_pairs(self.testbed, pairs, None, metrics, span)
            metrics.verification = PhaseMetrics.from_io_delta(
                time.perf_counter() - started, disk.stats.delta(before)
            )
            span.set(
                candidates=count,
                false_positives=metrics.false_positives,
                results=len(result),
                page_reads=metrics.verification.page_reads,
            )
        return result


class _CandidateSink:
    """Deduplicating collector of candidate (r_tid, s_tid) pairs."""

    def add(self, r_tid: int, s_tid: int) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def sorted_pairs(self) -> Iterable[tuple[int, int]]:
        raise NotImplementedError

    def pairs(self) -> set[tuple[int, int]]:
        """The distinct pairs, in no order."""
        return set(self.sorted_pairs())

    def dispose(self) -> None:
        """Release any resources; the sink must not be used afterwards."""


class _SetCandidates(_CandidateSink):
    """Default: candidates kept in a main-memory set."""

    def __init__(self):
        self._pairs: set[tuple[int, int]] = set()

    def add(self, r_tid: int, s_tid: int) -> None:
        self._pairs.add((r_tid, s_tid))

    def __len__(self) -> int:
        return len(self._pairs)

    def sorted_pairs(self) -> Iterable[tuple[int, int]]:
        return sorted(self._pairs)

    def pairs(self) -> set[tuple[int, int]]:
        return self._pairs

    def dispose(self) -> None:
        self._pairs = set()


class _SpilledCandidates(_CandidateSink):
    """Candidates written to a temporary B-tree (Section 6's option of
    separating the joining and verification phases through disk).

    The B-tree key is the concatenated (r_tid, s_tid) pair, so duplicates
    collapse and a scan yields pairs in verification order for free.
    """

    def __init__(self, pool):
        from ..storage.btree import BTree

        self._pool = pool
        self._tree: BTree | None = BTree.create(pool)
        self._count = 0

    def add(self, r_tid: int, s_tid: int) -> None:
        assert self._tree is not None
        key = r_tid.to_bytes(8, "big") + s_tid.to_bytes(8, "big")
        if self._tree.get(key) is None:
            self._tree.insert(key, b"")
            self._count += 1

    def __len__(self) -> int:
        return self._count

    def sorted_pairs(self) -> Iterable[tuple[int, int]]:
        assert self._tree is not None
        for key, __ in self._tree.items():
            yield int.from_bytes(key[:8], "big"), int.from_bytes(key[8:], "big")

    def dispose(self) -> None:
        if self._tree is not None:
            self._tree.destroy()
            self._tree = None


def run_disk_join(
    lhs: Relation,
    rhs: Relation,
    partitioner: Partitioner,
    signature_bits: int = DEFAULT_SIGNATURE_BITS,
    buffer_pages: int = 512,
    buffer_policy: str = "lru",
    payload_size: int = DEFAULT_PAYLOAD_SIZE,
    path: str | None = None,
    monolithic_partitions: bool = False,
    resident_partitions: int = 0,
    spill_candidates: bool = False,
    workers: int = 1,
    backend: str = "serial",
    tracer=None,
) -> tuple[set[tuple[int, int]], JoinMetrics]:
    """Convenience wrapper: build a testbed, load, join, tear down.

    Unlike :func:`repro.core.api.containment_join` it stores both
    relations first (:meth:`Testbed.load`): its page counts, relation
    reads included, are what the figure, case-study and ablation
    experiments measure.

    ``workers``/``backend`` run the joining phase on the
    partition-parallel engine (see :mod:`repro.parallel`); the result
    set and the paper's x/y counts are identical for any worker count.
    Every option is checked before a relation is stored.  A sharded join
    is :class:`repro.dist.ShardedDatabase`'s ``join``.
    ``tracer`` enables span tracing of the run (see :mod:`repro.obs`).
    """
    check_join_options(
        signature_bits, workers, backend, resident_partitions, spill_candidates,
    )
    with Testbed(path=path, buffer_pages=buffer_pages,
                 buffer_policy=buffer_policy) as testbed:
        testbed.load(lhs, rhs, payload_size=payload_size)
        join = SetContainmentJoin(
            testbed,
            partitioner,
            signature_bits=signature_bits,
            monolithic_partitions=monolithic_partitions,
            resident_partitions=resident_partitions,
            spill_candidates=spill_candidates,
            workers=workers,
            parallel_backend=backend,
            tracer=tracer,
        )
        return join.run()
