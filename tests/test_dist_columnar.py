"""The columnar distributed join against the per-row placement it replaced.

Placement routes whole scan batches (``summarize_batches``,
``ReplicationPlanner.targets`` over ``assign_r_batch``), ships R portions
as arrays, and ``create_relation`` places a whole tid column at once
(``home_shards``).  Each is checked here against a test-local per-row
oracle — the formula or loop the array form must reproduce — on inputs
chosen to break an array path: empty sets, a shard with no S rows, a set
spanning B-tree chunks, duplicate sets, an element past int64 and the
largest tid.
"""

import copy
import random

import numpy as np
import pytest

from repro.core.psj import _mix
from repro.database import SetJoinDatabase
from repro.dist import ShardedDatabase, deterministic_partitioner
from repro.dist.placement import PlacementReport, assign_shard, home_shards

WIDE = 2**63 + 5
LAST_TID = 2**64 - 1
CHUNKY = frozenset(range(0, 4_000, 2))  # 2 000 elements: spans chunks

ALGORITHMS = [("DCJ", 16), ("DCJ", 5), ("PSJ", 16), ("LSJ", 16), ("auto", None)]


# ----------------------------------------------------------------------
# Home shards: the array form against the scalar rendezvous formula
# ----------------------------------------------------------------------

def scalar_home(tid, shard_ids):
    """The per-row rendezvous winner: highest weight, ties to the larger id."""
    def weight(sid):
        return _mix(_mix(tid) ^ _mix(sid ^ 0x9E3779B97F4A7C15))
    return max(shard_ids, key=lambda sid: (weight(sid), sid))


class TestHomeShards:
    def test_array_form_matches_the_scalar_formula(self):
        rng = random.Random(3)
        tids = [rng.getrandbits(64) for __ in range(400)]
        tids += [rng.randrange(1_000) for __ in range(100)]
        tids += [0, 2**63 - 1, 2**63, LAST_TID]
        for shard_ids in ([0], [0, 1], [0, 1, 2], [5, 2, 9, 7],
                          list(range(8)), [40, 3]):
            shuffled = rng.sample(shard_ids, len(shard_ids))
            homes = home_shards(np.array(tids, dtype=np.uint64), shuffled)
            assert homes.tolist() == [scalar_home(t, shard_ids) for t in tids]
            assert [assign_shard(t, shuffled) for t in tids[-4:]] == \
                homes[-4:].tolist()

    def test_create_relation_places_rows_on_their_home(self):
        rows = [(tid, frozenset({tid % 7})) for tid in range(0, 3_000, 7)]
        rows.append((LAST_TID, frozenset({1})))
        with ShardedDatabase.open(None, shards=3) as db:
            assert db.create_relation("r", rows) == len(rows)
            for shard in db.shards:
                for tid, __, __ in shard.db.get_store("r").scan():
                    assert scalar_home(tid, [0, 1, 2]) == shard.shard_id

    @pytest.mark.parametrize("tid", [-1, 2**64, 1.5, "3"])
    def test_a_tid_outside_uint64_is_refused_before_any_write(self, tid):
        from repro.errors import ConfigurationError

        with ShardedDatabase.open(None, shards=2) as db:
            with pytest.raises(ConfigurationError, match="tuple id"):
                db.create_relation("r", [(1, {1}), (tid, {2})])
            assert db.relation_names() == []


# ----------------------------------------------------------------------
# The differential matrix
# ----------------------------------------------------------------------

def _adversarial():
    rng = random.Random(17)
    r_rows = [
        (0, frozenset()),
        (1, frozenset({3, 7})),
        (2, frozenset({3, 7})),  # a duplicate set
        (3, frozenset({3, WIDE})),
        (4, frozenset(range(0, 40, 2))),
        (5, CHUNKY),
        (LAST_TID, frozenset({11})),
    ]
    r_rows += [
        (10 + i, frozenset(rng.sample(range(60), rng.randint(1, 4))))
        for i in range(45)
    ]
    s_sets = [
        frozenset(),
        CHUNKY,
        CHUNKY | {3, 7, 11, WIDE},
        frozenset({3, 7, 11}),
        frozenset({3, 7, 11}),  # a duplicate set
        frozenset({3, 9, WIDE}),
    ]
    s_sets += [
        frozenset(rng.sample(range(60), rng.randint(3, 14)))
        for __ in range(60)
    ]
    spread = [(100 + i, elements) for i, elements in enumerate(s_sets)]
    spread.append((LAST_TID, frozenset({2, 3, 7, 11})))
    # Every S row homed on shard 0 at 2 and 3 shards: the other shards'
    # S slices are empty.
    homed = (tid for tid in range(1_000, 10**6)
             if scalar_home(tid, [0, 1]) == 0
             and scalar_home(tid, [0, 1, 2]) == 0)
    one_home = [(next(homed), elements) for elements in s_sets]
    return r_rows, {"s": spread, "s_one_home": one_home}


def oracle_placement(db, r_name, s_name, partitioner):
    """The per-row placement: scan every row, route it with the per-tuple
    ``assign_s``/``assign_r`` and ship it to every shard with S rows that
    occupies one of its partitions."""
    summaries = []
    for shard in db.shards:
        local = copy.deepcopy(partitioner)
        rows = entries = 0
        occupied = set()
        for __, elements, __ in shard.db.get_store(s_name).scan():
            partitions = local.assign_s(elements)
            rows += 1
            entries += len(partitions)
            occupied.update(partitions)
        summaries.append((rows, entries, occupied))
    r_rows = logical = physical_rows = physical_entries = pruned = 0
    for shard in db.shards:
        for __, elements, __ in shard.db.get_store(r_name).scan():
            partitions = partitioner.assign_r(elements)
            targets = sum(
                1 for rows, __, occupied in summaries
                if rows and not occupied.isdisjoint(partitions)
            )
            r_rows += 1
            logical += len(partitions)
            physical_rows += targets
            physical_entries += targets * len(partitions)
            pruned += len(summaries) - targets
    return PlacementReport(
        shards=len(db.shards),
        r_rows=r_rows,
        s_rows=sum(rows for rows, __, __ in summaries),
        logical_r_entries=logical,
        logical_s_entries=sum(entries for __, entries, __ in summaries),
        physical_r_rows=physical_rows,
        physical_r_entries=physical_entries,
        pruned_occupancy=pruned,
    )


@pytest.fixture(scope="module")
def relations():
    return _adversarial()


@pytest.fixture(scope="module", params=[1, 2, 3])
def sharded(request, relations):
    r_rows, s_relations = relations
    with ShardedDatabase.open(None, shards=request.param) as db:
        db.create_relation("r", r_rows)
        for name, rows in s_relations.items():
            db.create_relation(name, rows)
        yield db


@pytest.mark.parametrize("s_name", ["s", "s_one_home"])
@pytest.mark.parametrize("algorithm, k", ALGORITHMS)
def test_sharded_join_matches_the_per_row_oracle(
    sharded, relations, algorithm, k, s_name
):
    r_rows, s_relations = relations
    s_rows = s_relations[s_name]
    if s_name == "s_one_home" and len(sharded.shards) > 1:
        assert sharded.shards[1].db.relation_size(s_name) == 0
    partitioner = deterministic_partitioner(
        sharded.plan("r", s_name, algorithm, k).build_partitioner(0))

    pairs, metrics = sharded.join("r", s_name, algorithm, k)
    report = sharded.last_placement

    assert pairs == {(rt, st) for rt, r in r_rows for st, s in s_rows
                     if r <= s}
    assert report == oracle_placement(
        sharded, "r", s_name, copy.deepcopy(partitioner))
    with SetJoinDatabase.open() as single:
        single.create_relation("r", r_rows)
        single.create_relation(s_name, s_rows)
        single_pairs, expected = single.join(
            "r", s_name, partitioner=copy.deepcopy(partitioner))
    assert single_pairs == pairs
    assert metrics.signature_comparisons == expected.signature_comparisons
    assert metrics.replicated_signatures == expected.replicated_signatures
    assert metrics.replicated_signatures == report.logical_entries

