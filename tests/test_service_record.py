"""One record per served query: plan once, bill once, describe once.

The lane plans an ``auto`` join once and runs the plan's own partitioner
(two statistics samples, not four), opens one registry window per query
that both the bill and the flight entry's ``registry_delta`` come from,
and hands one finished record to every consumer.
"""

import pytest

from repro.data.workloads import uniform_workload
from repro.database import SetJoinDatabase
from repro.dist.coordinator import ShardedDatabase
from repro.obs.registry import MetricsRegistry, get_registry
from repro.service import QueryService, RetryPolicy
from repro.service.capture import answer_digest, read_capture


def outcome(pairs, metrics):
    return (
        metrics.algorithm, metrics.num_partitions,
        metrics.signature_comparisons, metrics.replicated_signatures,
        metrics.candidates, metrics.false_positives,
        answer_digest("join", (pairs, metrics))["sha256"],
    )


@pytest.fixture(params=[None, 2], ids=["single", "two-shards"])
def db(request, small_workload):
    lhs, rhs = small_workload
    opened = (
        SetJoinDatabase.open_sharded(None, shards=request.param)
        if request.param else SetJoinDatabase.open()
    )
    with opened as db:
        db.create_relation("r", lhs)
        db.create_relation("s", rhs)
        yield db


@pytest.fixture()
def statistics_calls(monkeypatch):
    calls = []
    for cls in (SetJoinDatabase, ShardedDatabase):
        original = cls._statistics

        def counted(self, name, seed=0, _original=original):
            calls.append(name)
            return _original(self, name, seed)

        monkeypatch.setattr(cls, "_statistics", counted)
    return calls


class TestPlanOnce:
    @pytest.mark.parametrize("options", [
        {"ledger": False},
        {"plan_cache_size": 4, "flight_recorder": 8},
    ], ids=["bare", "cache+flight+ledger"])
    def test_auto_join_samples_statistics_twice_and_matches_db_join(
            self, db, statistics_calls, options):
        expected = outcome(*db.join("r", "s"))
        with QueryService(db, registry=MetricsRegistry(),
                          **options) as service:
            del statistics_calls[:]
            served = outcome(*service.join("r", "s"))
            assert statistics_calls == ["r", "s"]
        assert served == expected

    def test_named_algorithm_resolves_once(self, db, statistics_calls):
        with QueryService(db, registry=MetricsRegistry()) as service:
            del statistics_calls[:]
            __, metrics = service.join("r", "s", algorithm="PSJ",
                                       num_partitions=8)
            assert statistics_calls == ["r", "s"]
        assert (metrics.algorithm, metrics.num_partitions) == ("PSJ", 8)

    def test_failed_first_attempt_replays_bit_for_bit_on_psj(self):
        """PSJ draws its elements from an RNG, so each attempt must get
        a fresh partitioner built from the one plan."""
        lhs, rhs = uniform_workload(
            800, 1200, 6, 14, domain_size=3_000, seed=11, planted_pairs=6,
        ).materialize()
        kills = []

        def kill_first_shard_once(spec):
            if not kills:
                kills.append(spec)
                spec.chaos_kill = True

        with SetJoinDatabase.open() as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
            with QueryService(db, registry=MetricsRegistry()) as calm:
                expected = outcome(*calm.join("r", "s"))
            assert expected[0] == "PSJ"
            with QueryService(
                db, registry=MetricsRegistry(), chaos=kill_first_shard_once,
                retry_policy=RetryPolicy(base_delay=0.0, jitter=0.0),
                flight_recorder=4,
            ) as troubled:
                ticket = troubled.submit("join", r="r", s="s")
                retried = outcome(*ticket.result(30.0))
                entry = troubled.debug_query(ticket.query_id)
        assert kills and ticket.attempts == 2
        assert retried == expected
        assert entry["plan"]["algorithm"] == "PSJ"
        assert entry["attempts"] == 2


class CountingRegistry(MetricsRegistry):
    """Counts window openings (snapshots not taken by ``delta`` itself)
    and window closings."""

    def __init__(self):
        super().__init__()
        self.baselines = 0
        self.deltas = 0
        self._in_delta = False

    def snapshot(self):
        if not self._in_delta:
            self.baselines += 1
        return super().snapshot()

    def delta(self, baseline):
        self.deltas += 1
        self._in_delta = True
        try:
            return super().delta(baseline)
        finally:
            self._in_delta = False


class TestBillOnce:
    def test_one_registry_window_per_lane_query(self, tmp_path,
                                                small_workload):
        lhs, rhs = small_workload
        registry = CountingRegistry()
        capture_path = str(tmp_path / "cap.jsonl")
        with SetJoinDatabase.open() as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
            with QueryService(
                db, registry=registry, plan_cache_size=4, flight_recorder=8,
                capture_path=capture_path, slo={"join": 30.0},
            ) as service:
                for run in (
                    lambda: service.join("r", "s"),
                    lambda: service.join("r", "s", algorithm="PSJ",
                                         num_partitions=4),
                    lambda: service.probe("s", [1, 2, 3]),
                    lambda: service.create_relation("t", [(0, [1, 2])]),
                    lambda: service.drop_relation("t"),
                ):
                    before = registry.baselines, registry.deltas
                    run()
                    assert (registry.baselines, registry.deltas) == (
                        before[0] + 1, before[1] + 1,
                    )
        assert len(read_capture(capture_path)) == 5

    def test_flight_delta_and_ledger_are_the_same_window(self, tmp_path,
                                                         small_workload):
        """The db publishes to the process registry, so this one runs
        against it: every query kind gets a ``registry_delta`` whose
        counters are exactly the bill's."""
        lhs, rhs = small_workload
        with SetJoinDatabase.open(str(tmp_path / "w.db")) as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
            with QueryService(db, registry=get_registry(),
                              flight_recorder=8) as service:
                service.join("r", "s")
                service.probe("s", [1, 2, 3])
                service.create_relation("t", [(0, [1, 2])])
                entries = [
                    service.debug_query(row["query_id"])
                    for row in service.debug_queries()
                ]
                report = service.debug_workload()
        assert [entry["kind"] for entry in entries] == \
            ["create", "probe", "join"]
        for entry in entries:
            counters = entry["ledger"]["counters"]
            moved = {
                name: value
                for name, value in entry["registry_delta"].items()
                if name in counters
            }
            assert moved == counters
            assert entry["fingerprint"] and entry["label"]
        create, __, join = entries
        assert create["ledger"]["resources"]["wal_commits"] == 1
        assert join["ledger"]["resources"]["signature_comparisons"] > 0
        assert join["registry_delta"]["setjoin_join_seconds"]["count"] == 1
        assert join["plan"]["signature_bits"] == \
            join["params"]["signature_bits"]
        assert report["reconciliation"]["exact"] is True
