"""The query service in front of a sharded database: correct answers
under load and chaos, resharding through the admission lane."""

import pytest

from repro.database import SetJoinDatabase
from repro.dist import ShardedDatabase
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.parallel.executor import Execution
from repro.service import LoadGenerator, QueryService, WorkloadMix


@pytest.fixture()
def expected(small_workload):
    lhs, rhs = small_workload
    with SetJoinDatabase.open() as db:
        db.create_relation("r", lhs)
        db.create_relation("s", rhs)
        pairs, __ = db.join("r", "s")
    return pairs


def sharded_service(shards=3, **kwargs):
    kwargs.setdefault("registry", MetricsRegistry())
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("backend", "thread")
    return QueryService(None, shards=shards, **kwargs)


class KillOnce:
    """A shard hook that kills exactly one worker, once — the smallest
    possible chaos schedule, so the retry ladder must fire exactly once
    and the answer must still come back right."""

    def __init__(self):
        self.armed = False
        self.kills = 0

    def arm(self):
        self.armed = True
        return self

    def __call__(self, spec):
        if self.armed:
            spec.chaos_kill = True
            self.armed = False
            self.kills += 1


class TestShardedService:
    def test_join_matches_single_database(self, small_workload, expected):
        lhs, rhs = small_workload
        with sharded_service() as service:
            service.create_relation("r", [(t.tid, t.elements) for t in lhs])
            service.create_relation("s", [(t.tid, t.elements) for t in rhs])
            pairs, metrics = service.join("r", "s")
            assert pairs == expected
            assert metrics.result_size == len(expected)
            stats = service.stats()
            assert stats["shards"] == 3

    def test_load_generator_with_reshard_mix(self, small_workload,
                                             expected):
        lhs, rhs = small_workload
        with sharded_service(queue_depth=64) as service:
            service.create_relation("r", [(t.tid, t.elements) for t in lhs])
            service.create_relation("s", [(t.tid, t.elements) for t in rhs])
            generator = LoadGenerator(
                service, "r", "s", qps=1000, seed=17,
                mix=WorkloadMix(join=0.4, probe=0.3, churn=0.15,
                                reshard=0.15),
                sleep=lambda seconds: None,
            ).prepare()
            report = generator.run(60)
        report.assert_no_wrong_answers()
        assert report.submitted == 60
        assert report.ok > 0

    def test_reshard_mix_requires_a_sharded_database(self, small_workload):
        lhs, rhs = small_workload
        with SetJoinDatabase.open() as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
            with QueryService(db, workers=1, backend="serial",
                              registry=MetricsRegistry()) as service:
                with pytest.raises(ConfigurationError, match="reshard"):
                    LoadGenerator(service, "r", "s",
                                  mix=WorkloadMix(reshard=0.5),
                                  sleep=lambda seconds: None)

    def test_reshard_through_the_lane(self, small_workload, expected):
        lhs, rhs = small_workload
        with sharded_service(shards=2) as service:
            service.create_relation("r", [(t.tid, t.elements) for t in lhs])
            service.create_relation("s", [(t.tid, t.elements) for t in rhs])
            assert service.reshard(5) == 5
            assert service.db.shard_ids == [0, 1, 2, 3, 4]
            pairs, __ = service.join("r", "s")
            assert pairs == expected

    def test_reshard_rejected_on_plain_database(self, small_workload):
        lhs, rhs = small_workload
        with SetJoinDatabase.open() as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
            with QueryService(db, workers=1, backend="serial",
                              registry=MetricsRegistry()) as service:
                with pytest.raises(ConfigurationError, match="sharded"):
                    service.reshard(3)

    def test_shards_conflicts_with_borrowed_database(self, small_workload):
        lhs, rhs = small_workload
        with SetJoinDatabase.open() as db:
            db.create_relation("r", lhs)
            with pytest.raises(ConfigurationError):
                QueryService(db, shards=2, registry=MetricsRegistry())


class TestKillOneShardWorker:
    def test_killed_worker_retries_to_the_right_answer(
        self, small_workload, expected
    ):
        lhs, rhs = small_workload
        chaos = KillOnce()
        with sharded_service(chaos=chaos, workers=2,
                             backend="thread") as service:
            service.create_relation("r", [(t.tid, t.elements) for t in lhs])
            service.create_relation("s", [(t.tid, t.elements) for t in rhs])
            chaos.arm()
            ticket = service.submit("join", r="r", s="s")
            pairs, __ = ticket.result(timeout=60.0)
        assert chaos.kills == 1  # the fault really landed on a shard
        assert ticket.attempts > 1  # the ladder retried past it
        assert pairs == expected  # and the answer is still exact

    def test_sharded_database_directly_with_kill(self, small_workload,
                                                 expected):
        """Same fault injected below the service: the coordinator
        surfaces the shard failure instead of returning partial pairs."""
        from repro.errors import SetJoinError

        lhs, rhs = small_workload
        chaos = KillOnce().arm()
        with ShardedDatabase.open(None, shards=3) as db:
            db.create_relation("r", [(t.tid, t.elements) for t in lhs])
            db.create_relation("s", [(t.tid, t.elements) for t in rhs])
            with pytest.raises(SetJoinError):
                db.join("r", "s", workers=2, backend="thread",
                        execution=Execution(hook=chaos))
            # the fault is one-shot, so the plain retry succeeds
            pairs, __ = db.join("r", "s", workers=2, backend="thread",
                                execution=Execution(hook=chaos))
        assert chaos.kills == 1
        assert pairs == expected
