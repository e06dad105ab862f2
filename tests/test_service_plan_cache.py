"""Plan cache keyed on relation-statistics fingerprints.

Repeated joins over unchanged relations must reuse the optimizer's
decision (hits counted), while catalog churn, content changes, and
model recalibration must all invalidate — a stale plan is worse than
no cache."""

import pytest

from repro.database import SetJoinDatabase
from repro.obs.registry import MetricsRegistry
from repro.service import QueryService
from repro.service.core import PlanCache


class TestPlanCacheUnit:
    def test_lru_eviction(self):
        cache = PlanCache(2, registry=MetricsRegistry())
        cache.store("a", 1)
        cache.store("b", 2)
        assert cache.lookup("a") == 1  # refreshes "a"
        cache.store("c", 3)  # evicts the least recent: "b"
        assert cache.lookup("b") is None
        assert cache.lookup("a") == 1
        assert cache.lookup("c") == 3
        assert len(cache) == 2

    def test_counters(self):
        registry = MetricsRegistry()
        cache = PlanCache(4, registry=registry)
        cache.lookup("missing")
        cache.store("k", "plan")
        cache.lookup("k")
        assert registry.counter(
            "setjoin_service_plan_cache_misses_total", ""
        ).value == 1
        assert registry.counter(
            "setjoin_service_plan_cache_hits_total", ""
        ).value == 1

    def test_invalidate_by_relation_name(self):
        cache = PlanCache(8, registry=MetricsRegistry())
        cache.store(("r", "s", 1), "a")
        cache.store(("r", "t", 2), "b")
        cache.store(("u", "v", 3), "c")
        assert cache.invalidate("s") == 1
        assert cache.lookup(("r", "s", 1)) is None
        assert cache.lookup(("r", "t", 2)) == "b"
        assert cache.invalidate("r") == 1
        assert len(cache) == 1


@pytest.fixture()
def loaded_db(small_workload):
    lhs, rhs = small_workload
    with SetJoinDatabase.open() as db:
        db.create_relation("r", lhs)
        db.create_relation("s", rhs)
        yield db


def cached_service(db, **kwargs):
    kwargs.setdefault("registry", MetricsRegistry())
    kwargs.setdefault("plan_cache_size", 16)
    return QueryService(db, workers=1, backend="serial", **kwargs)


class TestPlanCacheInService:
    def test_repeat_joins_hit_the_cache(self, loaded_db):
        with cached_service(loaded_db) as service:
            first, __ = service.join("r", "s")
            for __i in range(3):
                pairs, __m = service.join("r", "s")
                assert pairs == first
            stats = service.stats()["plan_cache"]
            assert stats["misses"] == 1
            assert stats["hits"] == 3
            assert stats["entries"] == 1
            assert stats["capacity"] == 16

    def test_churn_invalidates_involved_plans(self, loaded_db):
        with cached_service(loaded_db) as service:
            service.join("r", "s")
            # unrelated churn leaves the cached plan alone
            service.create_relation("other", [(1, [1, 2])])
            service.join("r", "s")
            assert service.stats()["plan_cache"]["hits"] == 1
            # dropping a joined relation invalidates its fingerprints
            service.drop_relation("other")
            service.create_relation("s2", [(9, [1]), (10, [1, 2])])
            service.join("r", "s2")
            service.drop_relation("s2")
            service.create_relation("s2", [(9, [1, 2, 3])])
            service.join("r", "s2")
            stats = service.stats()["plan_cache"]
            assert stats["misses"] == 3  # (r,s), (r,s2), (r,s2')
            assert stats["hits"] == 1

    def test_content_change_changes_the_fingerprint(self, loaded_db):
        """Even a same-name recreate with different statistics misses:
        the key is (sizes, densities, model), not just names."""
        with cached_service(loaded_db) as service:
            service.join("r", "s")
            service.join("r", "s")
            service.drop_relation("s")
            rows = [(i, frozenset({i % 5, i % 11})) for i in range(1, 80)]
            service.create_relation("s", rows)
            service.join("r", "s")
            stats = service.stats()["plan_cache"]
            assert stats["misses"] == 2
            assert stats["hits"] == 1

    def test_disabled_by_default(self, loaded_db):
        with QueryService(loaded_db, workers=1, backend="serial",
                          registry=MetricsRegistry()) as service:
            service.join("r", "s")
            assert "plan_cache" not in service.stats()

    def test_cache_works_on_sharded_databases(self, small_workload):
        lhs, rhs = small_workload
        with QueryService(None, shards=2, workers=1, backend="serial",
                          plan_cache_size=8,
                          registry=MetricsRegistry()) as service:
            service.create_relation("r", [(t.tid, t.elements) for t in lhs])
            service.create_relation("s", [(t.tid, t.elements) for t in rhs])
            first, __ = service.join("r", "s")
            again, __m = service.join("r", "s")
            assert again == first
            stats = service.stats()["plan_cache"]
            assert stats["hits"] == 1 and stats["misses"] == 1

    def test_drift_corrections_are_part_of_the_key(self, loaded_db,
                                                   tmp_path):
        """A cached plan must not outlive the drift evidence that would
        now pick a different one: the optimizer's decision depends on
        the per-algorithm correction factors, so the key does too."""
        from repro.obs.drift import DriftRecord, append_drift_jsonl

        drift = str(tmp_path / "drift.jsonl")
        with cached_service(loaded_db, plan_cache_size=8,
                            drift_path=drift) as service:
            __, before = service.join("r", "s")
            # 60 joins' worth of evidence that the cached algorithm runs
            # 4x its prediction (signed error 0.75 = 1 - 1/4).
            for number in range(60):
                append_drift_jsonl(DriftRecord(
                    timestamp=float(number), algorithm=before.algorithm,
                    k=before.num_partitions, r_size=120, s_size=140,
                    predicted={"seconds": 1.0}, observed={"seconds": 4.0},
                    errors={"seconds": 0.75},
                ), drift)
            replanned = loaded_db.plan("r", "s", drift_history=drift)
            assert replanned.drift_corrections[before.algorithm] > 3.0
            assert (replanned.algorithm, replanned.k) != (
                before.algorithm, before.num_partitions,
            )
            __, after = service.join("r", "s")
            assert (after.algorithm, after.num_partitions) == (
                replanned.algorithm, replanned.k,
            )
            # A one-record nudge (3.5x instead of 4x) moves the factor
            # but not its rounded key: the corrected plan stays cached.
            # (Planned directly: a served join would append its own
            # drift record and move a second factor.)
            corrected = service._plan_for("r", "s")
            hits = service.stats()["plan_cache"]["hits"]
            append_drift_jsonl(DriftRecord(
                timestamp=60.0, algorithm=before.algorithm,
                k=before.num_partitions, r_size=120, s_size=140,
                predicted={"seconds": 1.0}, observed={"seconds": 3.5},
                errors={"seconds": 1 - 1 / 3.5},
            ), drift)
            assert service._plan_for("r", "s") is corrected
            assert service.stats()["plan_cache"]["hits"] == hits + 1
