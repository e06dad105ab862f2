"""The shard's in-memory R portion against the stored relation it replaced.

A shard joins the shipped ``(tids, elements, offsets)`` slices as a
:class:`~repro.core.sets.Relation` instead of loading them into a
temporary B-tree.  It must answer every read the operator makes exactly
as a :class:`~repro.storage.relation_store.RelationStore` of the same rows
does — scans and batch fetches, on the inputs that break array paths —
and a sharded join must leave every shard's pages as it found them.
"""

import random

import numpy as np
import pytest

from repro.core.sets import Relation
from repro.data.workloads import uniform_workload
from repro.database import SetJoinDatabase
from repro.dist import ShardedDatabase
from repro.storage.buffer import BufferPool
from repro.storage.pager import InMemoryDiskManager
from repro.storage.relation_store import BATCH_TUPLES, RelationStore

HIGH = 2**63
LAST_TID = 2**64 - 1
CHUNKY = frozenset(range(0, 4_000, 2))  # 2 000 elements: spans chunks


def _rows(kind):
    rng = random.Random(23)
    tids = rng.sample(range(1, 50_000), 2 * BATCH_TUPLES + 40)
    rows = [(tid, frozenset(rng.sample(range(300), rng.randrange(0, 9))))
            for tid in tids]
    rows += [(0, frozenset()), (7 * 10**9, CHUNKY)]
    if kind != "int64":
        rows += [(HIGH, frozenset({1, 2})), (LAST_TID, frozenset({3}))]
    if kind == "wide-elements":
        rows.append((HIGH + 1, frozenset({5, HIGH + 9})))
    return rows


def _slices(store, rng):
    """The store's scan batches cut into masked slices and shuffled, as
    placement ships them to a shard."""
    slices = []
    for tids, elements, offsets in store.scan_batches():
        sizes = np.diff(offsets)
        keep = np.array([rng.random() < 0.5 for __ in tids], dtype=bool)
        for mask in (keep, ~keep):
            kept = np.zeros(np.count_nonzero(mask) + 1, dtype=np.int64)
            np.cumsum(sizes[mask], out=kept[1:])
            slices.append((tids[mask], elements[np.repeat(mask, sizes)], kept))
    rng.shuffle(slices)
    return slices


def _listed(batches):
    """Batches as (batch sizes, rows): the rows as (tid, elements) lists."""
    sizes, rows = [], []
    for tids, elements, offsets in batches:
        sizes.append(len(tids))
        flat, bounds = elements.tolist(), offsets.tolist()
        rows += [(tid, flat[lo:hi])
                 for tid, lo, hi in zip(tids.tolist(), bounds, bounds[1:])]
    return sizes, rows


@pytest.fixture(params=["int64", "wide-tids", "wide-elements"])
def twins(request):
    pool = BufferPool(InMemoryDiskManager(4096), capacity=64)
    store = RelationStore.create(pool, _rows(request.param), name="r")
    portion = Relation._of_batches(_slices(store, random.Random(5)), name="r")
    return store, portion


def test_scans_the_same_rows_in_the_same_batches(twins):
    store, portion = twins
    assert len(portion) == len(store)
    assert _listed(portion.scan_batches()) == _listed(store.scan_batches())


@pytest.mark.parametrize("tids", [
    [],
    [0],
    [LAST_TID, HIGH, 0, HIGH, LAST_TID],
    [HIGH - 1, HIGH + 2, LAST_TID - 1, 2**64, -1, 1, 49_999_999],
    [7 * 10**9, 7 * 10**9],
    "every tid, shuffled and repeated, plus absent ones",
], ids=["none", "zero", "extremes-repeated", "absent", "chunky", "all"])
def test_fetches_answer_as_the_store_does(twins, tids):
    store, portion = twins
    if isinstance(tids, str):
        stored = [tid for batch in store.scan_batches()
                  for tid in batch[0].tolist()]
        tids = stored + stored[::3] + [-5, 2**64 + 1, 50_001]
        random.Random(9).shuffle(tids)
    assert (_listed(portion.fetch_batches(iter(tids)))
            == _listed(store.fetch_batches(iter(tids))))


def test_an_empty_portion_is_an_empty_relation():
    portion = Relation._of_batches([], name="empty")
    assert len(portion) == 0
    assert list(portion.scan_batches()) == []
    assert list(portion.fetch_batches([0, LAST_TID])) == []


def test_a_sharded_join_leaves_every_shards_pages_as_it_found_them():
    # Domain above the signature width: verification fetches R sets from
    # the portion's arrays.
    lhs, rhs = uniform_workload(
        300, 400, 3, 12, domain_size=400, seed=3, planted_pairs=10
    ).materialize()
    with SetJoinDatabase.open(None) as single:
        single.create_relation("R", lhs)
        single.create_relation("S", rhs)
        expected, reference = single.join("R", "S", "DCJ", 8)
    with ShardedDatabase.open(None, shards=2) as db:
        db.create_relation("R", lhs)
        db.create_relation("S", rhs)
        live = [shard.db.disk.num_live_pages for shard in db.shards]
        for __ in range(2):
            pairs, metrics = db.join("R", "S", "DCJ", 8)
            assert [shard.db.disk.num_live_pages for shard in db.shards] == live
    assert pairs == expected
    assert metrics.false_positives == reference.false_positives > 0
