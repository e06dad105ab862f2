"""Tests for the persistent multi-relation database shell."""

import pytest

from repro.core.sets import Relation, containment_pairs_nested_loop
from repro.database import SetJoinDatabase
from repro.data.workloads import uniform_workload
from repro.errors import ConfigurationError
from repro.storage.catalog import Catalog
from repro.storage.buffer import BufferPool
from repro.storage.pager import InMemoryDiskManager


@pytest.fixture()
def relations():
    return uniform_workload(
        80, 100, 6, 12, domain_size=2_000, seed=9, planted_pairs=4
    ).materialize()


class TestCatalog:
    def test_register_lookup_unregister(self):
        pool = BufferPool(InMemoryDiskManager(512), capacity=16)
        catalog = Catalog(pool)
        catalog.register("students", meta_page_id=7, size=100)
        assert catalog.lookup("students") == (7, 100)
        assert "students" in catalog
        assert list(catalog.names()) == ["students"]
        assert catalog.unregister("students")
        assert not catalog.unregister("students")
        assert len(catalog) == 0

    def test_empty_name_rejected(self):
        pool = BufferPool(InMemoryDiskManager(512), capacity=16)
        with pytest.raises(ConfigurationError):
            Catalog(pool).register("", 1, 1)

    def test_reopen_existing_store(self):
        disk = InMemoryDiskManager(512)
        pool = BufferPool(disk, capacity=16)
        catalog = Catalog(pool)
        catalog.register("r", 3, 5)
        pool.flush_all()
        again = Catalog(pool)  # same store, no re-create
        assert again.lookup("r") == (3, 5)


class TestDatabase:
    def test_create_read_roundtrip(self, relations):
        lhs, __ = relations
        with SetJoinDatabase.open() as db:
            assert db.create_relation("r", lhs) == len(lhs)
            assert db.relation_names() == ["r"]
            assert db.relation_size("r") == len(lhs)
            loaded = db.read_relation("r")
            assert loaded.tids() == lhs.tids()
            for row in lhs:
                assert loaded[row.tid].elements == row.elements

    def test_duplicate_name_rejected(self, relations):
        lhs, __ = relations
        with SetJoinDatabase.open() as db:
            db.create_relation("r", lhs)
            with pytest.raises(ConfigurationError):
                db.create_relation("r", lhs)

    def test_missing_relation_rejected(self):
        with SetJoinDatabase.open() as db:
            with pytest.raises(ConfigurationError):
                db.get_store("ghost")
            with pytest.raises(ConfigurationError):
                db.drop_relation("ghost")

    def test_streamed_rows(self):
        with SetJoinDatabase.open() as db:
            db.create_relation("s", ((tid, {tid, tid + 1}) for tid in range(30)))
            assert db.relation_size("s") == 30
            assert db.read_relation("s")[7].elements == frozenset({7, 8})

    def test_join_over_stored_relations(self, relations):
        lhs, rhs = relations
        expected = containment_pairs_nested_loop(lhs, rhs)
        with SetJoinDatabase.open() as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
            for algorithm in ("auto", "DCJ", "PSJ", "LSJ"):
                pairs, metrics = db.join("r", "s", algorithm=algorithm)
                assert pairs == expected, algorithm

    def test_join_non_power_of_two(self, relations):
        lhs, rhs = relations
        expected = containment_pairs_nested_loop(lhs, rhs)
        with SetJoinDatabase.open() as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
            pairs, metrics = db.join("r", "s", algorithm="DCJ",
                                     num_partitions=12)
            assert pairs == expected
            assert metrics.num_partitions == 12

    def test_plan_and_explain(self, relations):
        lhs, rhs = relations
        with SetJoinDatabase.open() as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
            plan = db.plan("r", "s")
            assert plan.algorithm in ("DCJ", "PSJ")
            text = db.explain("r", "s")
            assert "chosen:" in text
            assert "best DCJ" in text and "best PSJ" in text

    def test_explain_plan_renders_the_predicted_tree(self, relations):
        lhs, rhs = relations
        with SetJoinDatabase.open() as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
            report = db.explain_plan("r", "s", algorithm="DCJ",
                                     num_partitions=8)
            text = report.render()
            assert report.mode == "explain"
            assert "α(h1)" in text  # the DCJ operator tree
            assert "phase.partition" in text and "phase.verify" in text
            # Built from catalog statistics alone — nothing executed, so
            # EXPLAIN must not grow the database.
            pages_before = db.disk.num_pages
            db.explain_plan("r", "s")
            assert db.disk.num_pages == pages_before

    def test_explain_plan_auto_matches_the_optimizer(self, relations):
        lhs, rhs = relations
        with SetJoinDatabase.open() as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
            plan = db.plan("r", "s")
            report = db.explain_plan("r", "s")
            assert report.root.detail == f"{plan.algorithm} k={plan.k}"

    def test_stats_report_join_latency_percentiles(self, relations):
        lhs, rhs = relations
        with SetJoinDatabase.open() as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
            db.join("r", "s", algorithm="PSJ")
            stats = db.stats()
        # The latency series lives in the process-wide registry, so
        # other tests' joins may have contributed too — at least ours
        # must be there, with ordered quantiles.
        assert stats["joins_recorded"] >= 1
        p50, p95, p99 = (stats["join_latency_p50"],
                         stats["join_latency_p95"],
                         stats["join_latency_p99"])
        assert p50 is not None
        assert p50 <= p95 <= p99

    def test_drop_returns_pages(self, relations):
        lhs, __ = relations
        with SetJoinDatabase.open() as db:
            db.create_relation("r", lhs)
            live_with_relation = db.disk.num_live_pages
            db.drop_relation("r")
            assert db.relation_names() == []
            assert db.disk.num_live_pages < live_with_relation

    def test_repeated_joins_bounded_growth(self, relations):
        lhs, rhs = relations
        with SetJoinDatabase.open() as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
            db.join("r", "s", algorithm="PSJ")
            pages_after_first = db.disk.num_pages
            for __ in range(3):
                db.join("r", "s", algorithm="PSJ")
            assert db.disk.num_pages <= pages_after_first + 2

    def test_closed_database_rejects_operations(self, relations):
        lhs, __ = relations
        db = SetJoinDatabase.open()
        db.create_relation("r", lhs)
        db.close()
        with pytest.raises(ConfigurationError):
            db.relation_names()


class TestFilePersistence:
    def test_database_survives_reopen(self, tmp_path, relations):
        lhs, rhs = relations
        expected = containment_pairs_nested_loop(lhs, rhs)
        path = str(tmp_path / "sets.db")
        with SetJoinDatabase.open(path) as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
        with SetJoinDatabase.open(path) as db:
            assert sorted(db.relation_names()) == ["r", "s"]
            assert db.relation_size("r") == len(lhs)
            pairs, __ = db.join("r", "s")
            assert pairs == expected

    def test_two_reopens_with_drops(self, tmp_path, relations):
        lhs, rhs = relations
        path = str(tmp_path / "sets.db")
        with SetJoinDatabase.open(path) as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
            db.drop_relation("r")
        with SetJoinDatabase.open(path) as db:
            assert db.relation_names() == ["s"]
            db.create_relation("r2", lhs)
        with SetJoinDatabase.open(path) as db:
            assert sorted(db.relation_names()) == ["r2", "s"]


class TestAdaptivePlanning:
    def test_model_store_supplies_the_planning_model(self, relations):
        from repro.analysis.timemodel import PAPER_TIME_MODEL, TimeModel
        from repro.obs.adaptive import ModelStore

        lhs, rhs = relations
        store = ModelStore()
        store.add_version(
            TimeModel(2 * PAPER_TIME_MODEL.c1, 2 * PAPER_TIME_MODEL.c2,
                      PAPER_TIME_MODEL.c3),
            records=24, window=200,
            mean_abs_error_before=0.5, mean_abs_error_after=0.0,
            wall=lambda: 1.0,
        )
        with SetJoinDatabase.open(model_store=store) as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
            assert db.model == store.active
            plan = db.plan("r", "s")
            # Doubling both linear coefficients doubles every candidate's
            # predicted time but cannot change the argmin.
            baseline = db.plan("r", "s")
            assert plan.algorithm == baseline.algorithm

    def test_refresh_model_follows_external_recalibration(
        self, relations, tmp_path
    ):
        from repro.analysis.timemodel import PAPER_TIME_MODEL, TimeModel
        from repro.obs.adaptive import ModelStore

        lhs, rhs = relations
        store_path = str(tmp_path / "models.json")
        with SetJoinDatabase.open(model_store=store_path) as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
            assert db.model == PAPER_TIME_MODEL  # nothing refitted yet
            # An external process (e.g. `repro join --recalibrate`)
            # writes a new version into the same store file.
            external = ModelStore(store_path)
            fitted = TimeModel(1e-6, 2e-6, 0.7)
            external.add_version(
                fitted, records=24, window=200,
                mean_abs_error_before=0.5, mean_abs_error_after=0.01,
                wall=lambda: 1.0,
            )
            db.model_store._load(store_path)  # long-lived session re-reads
            assert db.refresh_model() == fitted
            # plan() re-adopts automatically on every call.
            assert db.plan("r", "s") is not None
            assert db.model == fitted

    def test_plan_accepts_drift_history(self, relations):
        lhs, rhs = relations
        with SetJoinDatabase.open() as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
            baseline = db.plan("r", "s")
            loser = "PSJ" if baseline.algorithm == "DCJ" else "DCJ"
            flipped = db.plan(
                "r", "s",
                drift_history={baseline.algorithm: 50.0, loser: 1.0},
            )
            assert flipped.algorithm == loser


class TestProbe:
    """``probe`` counts query hits per stored tuple over ``scan_batches``;
    the per-tuple ``frozenset.issubset`` scan it replaced is the oracle."""

    @pytest.fixture()
    def db(self):
        import random

        from repro.storage.relation_store import BATCH_TUPLES

        rng = random.Random(21)
        rows = [
            (tid * 3, frozenset(rng.sample(range(60), rng.randint(0, 25))))
            for tid in range(2 * BATCH_TUPLES + 11)
        ]
        with SetJoinDatabase.open(None) as db:
            db.create_relation("S", rows)
            yield db

    @staticmethod
    def oracle(db, query):
        query = frozenset(query)
        return [tid for tid, stored, __ in db.get_store("S").scan()
                if query.issubset(stored)]

    @pytest.mark.parametrize("query", [
        [], [7], [7, 7, 7], [3, 41], [0, 1, 2, 3], [59, 5, 17], [1000], [-1],
        [7, 1000], list(range(60)),
    ])
    def test_matches_the_per_tuple_subset_scan(self, db, query):
        answer = db.probe("S", query)
        assert answer == self.oracle(db, query)
        assert answer == sorted(answer)

    def test_empty_probe_matches_every_tuple_in_tid_order(self, db):
        assert db.probe("S", []) == list(db.get_store("S").tids())

    def test_generator_query_and_numpy_free_answer(self, db):
        answer = db.probe("S", (element for element in (3, 41)))
        assert answer == self.oracle(db, [3, 41])
        assert all(type(tid) is int for tid in answer)

    def test_one_full_scan_of_the_leaf_chain(self, db):
        reads = []
        for walk in (lambda: list(db.get_store("S").scan()),
                     lambda: db.probe("S", [3])):
            db.pool.flush_all()
            db.pool.drop_all()
            before = db.disk.stats.snapshot()
            walk()
            reads.append(db.disk.stats.delta(before).page_reads)
        assert reads[0] == reads[1] > 0
