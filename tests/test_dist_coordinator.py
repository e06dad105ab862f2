"""Shard-count invariance and coordinator behaviour.

The acceptance bar for the dist layer: at every shard count and every
per-shard execution backend, a distributed join returns pairs *and*
paper x/y accounting bit-identical to single-shard execution; EXPLAIN
reports the replication factor; resharding preserves answers while
moving only the minimally required rows.
"""

import os
import threading

import pytest

from repro.core.psj import PSJPartitioner
from repro.database import SetJoinDatabase
from repro.dist import Shard, ShardedDatabase, deterministic_partitioner
from repro.errors import ConfigurationError
from repro.parallel.executor import ProcessBackend

SHARD_COUNTS = (1, 2, 3, 8)

process_available = ProcessBackend(2).available()


def _rows(relation):
    return [(row.tid, row.elements) for row in relation]


@pytest.fixture(scope="module")
def workload(small_workload):
    lhs, rhs = small_workload
    return _rows(lhs), _rows(rhs)


@pytest.fixture(scope="module")
def single_answer(workload):
    """The plain single-database answer plus the deterministic-PSJ
    baseline accounting the sharded runs must reproduce exactly."""
    r_rows, s_rows = workload
    with SetJoinDatabase.open() as db:
        db.create_relation("r", r_rows)
        db.create_relation("s", s_rows)
        pairs, __ = db.join("r", "s", algorithm="PSJ", num_partitions=8)
    partitioner = deterministic_partitioner(PSJPartitioner(8))
    with ShardedDatabase.open(None, shards=1) as db:
        db.create_relation("r", r_rows)
        db.create_relation("s", s_rows)
        base_pairs, metrics = db.join("r", "s", partitioner=partitioner)
    assert base_pairs == pairs  # dist layer agrees with the plain engine
    return pairs, metrics


class TestShardCountInvariance:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_pairs_and_xy_identical(self, tmp_path, workload,
                                    single_answer, shards, backend):
        if backend == "process" and not process_available:
            pytest.skip("process backend unavailable in this sandbox")
        r_rows, s_rows = workload
        expected_pairs, expected = single_answer
        partitioner = deterministic_partitioner(PSJPartitioner(8))
        path = str(tmp_path / "dist.db") if backend == "process" else None
        workers = 1 if backend == "serial" else 2
        with ShardedDatabase.open(path, shards=shards) as db:
            db.create_relation("r", r_rows)
            db.create_relation("s", s_rows)
            pairs, metrics = db.join(
                "r", "s", partitioner=partitioner,
                workers=workers, backend=backend,
            )
        assert pairs == expected_pairs
        assert metrics.signature_comparisons == expected.signature_comparisons
        assert metrics.replicated_signatures == expected.replicated_signatures
        assert metrics.candidates == expected.candidates
        assert metrics.false_positives == expected.false_positives
        assert metrics.result_size == expected.result_size
        assert metrics.r_size == expected.r_size
        assert metrics.s_size == expected.s_size

    def test_auto_plan_is_shard_count_invariant(self, workload):
        """Exact statistics make the optimizer pick the same plan (and
        produce the same answer) at every shard count."""
        r_rows, s_rows = workload
        outcomes = []
        for shards in (1, 3):
            with ShardedDatabase.open(None, shards=shards) as db:
                db.create_relation("r", r_rows)
                db.create_relation("s", s_rows)
                plan = db.plan("r", "s")
                pairs, metrics = db.join("r", "s")
                outcomes.append((plan.algorithm, plan.k, pairs,
                                 metrics.signature_comparisons,
                                 metrics.replicated_signatures))
        assert outcomes[0] == outcomes[1]

    def test_signature_prune_keeps_pairs_exact(self, workload,
                                               single_answer):
        r_rows, s_rows = workload
        expected_pairs, __ = single_answer
        partitioner = deterministic_partitioner(PSJPartitioner(8))
        with ShardedDatabase.open(None, shards=4,
                                  prune="signature") as db:
            db.create_relation("r", r_rows)
            db.create_relation("s", s_rows)
            pairs, __m = db.join("r", "s", partitioner=partitioner)
            report = db.last_placement
        assert pairs == expected_pairs
        assert report.mode == "signature"


class TestCoordinatorSurface:
    def test_explain_reports_the_replication_factor(self, workload):
        r_rows, s_rows = workload
        with ShardedDatabase.open(None, shards=3) as db:
            db.create_relation("r", r_rows)
            db.create_relation("s", s_rows)
            text = db.explain("r", "s")
        assert "replication" in text and "factor" in text
        assert "3 shards" in text

    @pytest.mark.parametrize("on_disk, workers, threaded", [
        (False, 1, False), (False, 2, True), (True, 1, True),
    ])
    def test_thread_fanout_only_where_shard_joins_wait(
            self, tmp_path, monkeypatch, workload, on_disk, workers,
            threaded):
        """In-memory shards joining without workers never let go of the
        interpreter lock, so they run on the caller's thread, in shard
        order; a file or workers to wait for brings the pool back."""
        r_rows, s_rows = workload
        seen = []
        execute_join = Shard.execute_join

        def spy(shard, request):
            seen.append((shard.shard_id, threading.current_thread().name))
            return execute_join(shard, request)

        monkeypatch.setattr(Shard, "execute_join", spy)
        path = str(tmp_path / "fan.db") if on_disk else None
        with ShardedDatabase.open(path, shards=3) as db:
            db.create_relation("r", r_rows)
            db.create_relation("s", s_rows)
            db.join("r", "s", algorithm="PSJ", num_partitions=8,
                    workers=workers, backend="thread")
        assert sorted(shard_id for shard_id, __ in seen) == [0, 1, 2]
        if threaded:
            assert all(name.startswith("setjoin-dist") for __, name in seen)
        else:
            caller = threading.current_thread().name
            assert seen == [(0, caller), (1, caller), (2, caller)]

    def test_probe_and_scan_match_single_database(self, workload):
        r_rows, s_rows = workload
        query = sorted(s_rows[0][1])[:2]
        with SetJoinDatabase.open() as db:
            db.create_relation("s", s_rows)
            expected_probe = db.probe("s", query)
            expected_scan = [(t, e) for t, e, __ in db.get_store("s").scan()]
        with ShardedDatabase.open(None, shards=3) as db:
            db.create_relation("s", s_rows)
            assert db.probe("s", query) == sorted(expected_probe)
            assert list(db.scan_relation("s")) == expected_scan
            assert db.relation_size("s") == len(s_rows)
            assert len(db.get_store("s")) == len(s_rows)

    def test_manifest_reopen_and_conflict(self, tmp_path, workload):
        r_rows, __ = workload
        path = str(tmp_path / "layout.db")
        with ShardedDatabase.open(path, shards=3) as db:
            db.create_relation("r", r_rows)
        assert os.path.exists(path + ".shards.json")
        with ShardedDatabase.open(path) as db:  # shards= from manifest
            assert db.shard_ids == [0, 1, 2]
            assert db.relation_size("r") == len(r_rows)
        with pytest.raises(ConfigurationError):
            ShardedDatabase.open(path, shards=5)

    def test_open_sharded_entrypoint(self):
        with SetJoinDatabase.open_sharded(None, shards=2) as db:
            assert isinstance(db, ShardedDatabase)
            assert db.shard_ids == [0, 1]

    def test_shards_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ShardedDatabase.open(None, shards=0)
        with pytest.raises(ConfigurationError):
            ShardedDatabase.open(None)  # creating needs a count

    def test_verify_integrity_covers_every_shard(self, workload):
        r_rows, s_rows = workload
        with ShardedDatabase.open(None, shards=3) as db:
            db.create_relation("r", r_rows)
            db.create_relation("s", s_rows)
            report = db.verify_integrity()
        assert report["shards"] == 3
        assert report["tuples"] == len(r_rows) + len(s_rows)


class TestReshard:
    def test_reshard_preserves_answers_and_moves_minimally(
        self, tmp_path, workload, single_answer
    ):
        r_rows, s_rows = workload
        expected_pairs, expected = single_answer
        partitioner = deterministic_partitioner(PSJPartitioner(8))
        path = str(tmp_path / "grow.db")
        with ShardedDatabase.open(path, shards=2) as db:
            db.create_relation("r", r_rows)
            db.create_relation("s", s_rows)
            report = db.reshard(4)
            assert report.new_shard_ids == [0, 1, 2, 3]
            total = len(r_rows) + len(s_rows)
            assert report.total_rows == total
            # growing 2 → 4 moves an expected half; never everything
            assert 0 < report.moved_rows < total
            pairs, metrics = db.join("r", "s", partitioner=partitioner)
            assert pairs == expected_pairs
            assert (metrics.signature_comparisons
                    == expected.signature_comparisons)
            shrink = db.reshard(1)
            assert shrink.new_shard_ids == [0]
            pairs, __ = db.join("r", "s", partitioner=partitioner)
            assert pairs == expected_pairs
        # the manifest reflects the final layout
        with ShardedDatabase.open(path) as db:
            assert db.shard_ids == [0]
            assert db.relation_size("r") == len(r_rows)

    def test_reshard_drops_removed_shard_files(self, tmp_path, workload):
        r_rows, __ = workload
        path = str(tmp_path / "shrink.db")
        with ShardedDatabase.open(path, shards=3) as db:
            db.create_relation("r", r_rows)
            db.reshard(2)
            assert not os.path.exists(path + ".shard2")

    def test_noop_reshard(self, workload):
        r_rows, __ = workload
        with ShardedDatabase.open(None, shards=2) as db:
            db.create_relation("r", r_rows)
            report = db.reshard(2)
            assert report.moved_rows == 0
            assert db.shard_ids == [0, 1]


class TestRunDiskJoinShards:
    def test_run_disk_join_shards_parameter(self, small_workload):
        from repro.core.operator import run_disk_join

        lhs, rhs = small_workload
        base_pairs, base = run_disk_join(
            lhs, rhs, deterministic_partitioner(PSJPartitioner(8))
        )
        pairs, metrics = run_disk_join(
            lhs, rhs, deterministic_partitioner(PSJPartitioner(8)),
            shards=3,
        )
        assert pairs == base_pairs
        assert metrics.signature_comparisons == base.signature_comparisons
        assert metrics.replicated_signatures == base.replicated_signatures
