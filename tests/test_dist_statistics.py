"""The sharded planner's exact statistics are read once and never stale.

``ShardedDatabase._statistics`` remembers each relation's exact ``(size,
mean cardinality)`` after its first scan.  After every change that could
make that memory wrong — dropping a relation and re-creating the name,
resharding, reopening a file-backed database — the plan must be the one
a fresh scan of the stored rows gives.
"""

from repro.core.optimizer import plan_from_statistics
from repro.data.workloads import uniform_workload
from repro.dist import ShardedDatabase
from repro.storage.relation_store import RelationStore


def _workload(low, high, seed):
    return uniform_workload(
        120, 160, low, high, domain_size=200, seed=seed, planted_pairs=5
    ).materialize()


def _fresh(db, name):
    """(size, mean cardinality) from a scan of every shard's stored rows."""
    rows = list(db.scan_relation(name))
    return len(rows), sum(len(elements) for __, elements in rows) / len(rows)


def assert_fresh(db):
    r_stats, s_stats = _fresh(db, "R"), _fresh(db, "S")
    assert db._statistics("R") == r_stats
    assert db._statistics("S") == s_stats
    assert db.plan("R", "S") == plan_from_statistics(
        r_stats[0], s_stats[0], r_stats[1], s_stats[1], db.model
    )
    return s_stats


def test_a_second_plan_scans_nothing(monkeypatch):
    lhs, rhs = _workload(3, 9, 1)
    with ShardedDatabase.open(None, shards=2) as db:
        db.create_relation("R", lhs)
        db.create_relation("S", rhs)
        first = db.plan("R", "S")

        def no_scan(self):
            raise AssertionError("statistics scanned a relation again")

        monkeypatch.setattr(RelationStore, "scan_batches", no_scan)
        assert db.plan("R", "S") == first


def test_drop_and_recreate_the_name_with_other_cardinalities():
    lhs, rhs = _workload(3, 9, 1)
    with ShardedDatabase.open(None, shards=2) as db:
        db.create_relation("R", lhs)
        db.create_relation("S", rhs)
        before = assert_fresh(db)
        db.drop_relation("S")
        db.create_relation("S", _workload(10, 30, 2)[1])
        assert assert_fresh(db) != before


def test_reshard_two_three_two_and_add_and_remove_a_shard():
    lhs, rhs = _workload(3, 9, 1)
    with ShardedDatabase.open(None, shards=2) as db:
        db.create_relation("R", lhs)
        db.create_relation("S", rhs)
        assert_fresh(db)
        for reshape in (lambda: db.reshard(3), lambda: db.reshard(2),
                        db.add_shard, db.remove_shard):
            reshape()
            assert_fresh(db)
            db.drop_relation("S")
            db.create_relation("S", _workload(3 + len(db.shards), 30, 2)[1])
            assert_fresh(db)


def test_reopening_a_file_backed_database(tmp_path):
    path = str(tmp_path / "sets.db")
    lhs, rhs = _workload(3, 9, 1)
    with ShardedDatabase.open(path, shards=2) as db:
        db.create_relation("R", lhs)
        db.create_relation("S", rhs)
        before = assert_fresh(db)
    with ShardedDatabase.open(path) as db:
        assert assert_fresh(db) == before
        db.drop_relation("S")
        db.create_relation("S", _workload(10, 30, 2)[1])
        after = assert_fresh(db)
    with ShardedDatabase.open(path) as db:
        assert assert_fresh(db) == after != before
