"""Placement math: rendezvous assignment, deterministic PSJ routing,
and the replication planner's exactness/pruning accounting."""

import numpy as np
import pytest

from repro.core.psj import PSJPartitioner, _mix
from repro.dist.placement import (
    PlacementReport,
    ReplicationPlanner,
    assign_shard,
    deterministic_choice,
    deterministic_partitioner,
    summarize_batches,
)
from repro.errors import ConfigurationError
from repro.core.sets import Relation


def _batch(rows):
    """``(tid, elements)`` rows as one columnar batch."""
    return Relation(rows).arrays


class TestAssignShard:
    def test_deterministic_and_order_independent(self):
        for tid in range(200):
            a = assign_shard(tid, [0, 1, 2, 3])
            b = assign_shard(tid, [3, 1, 0, 2])
            assert a == b

    def test_spread_is_roughly_uniform(self):
        counts = {sid: 0 for sid in range(4)}
        for tid in range(2000):
            counts[assign_shard(tid, list(range(4)))] += 1
        for count in counts.values():
            assert 350 < count < 650  # 500 expected

    def test_growing_only_moves_rows_to_the_new_shard(self):
        old = [0, 1, 2]
        new = [0, 1, 2, 3]
        moved = 0
        for tid in range(1000):
            before = assign_shard(tid, old)
            after = assign_shard(tid, new)
            if before != after:
                assert after == 3  # rendezvous guarantee
                moved += 1
        assert 150 < moved < 350  # expected 1/4

    def test_shrinking_only_moves_the_removed_shards_rows(self):
        old = [0, 1, 2, 3]
        new = [0, 1, 2]
        for tid in range(1000):
            before = assign_shard(tid, old)
            after = assign_shard(tid, new)
            if before != 3:
                assert after == before

    def test_zero_shards_is_an_error(self):
        with pytest.raises(ConfigurationError):
            assign_shard(1, [])


class TestDeterministicPSJ:
    def test_choice_is_a_pure_function_of_the_set(self):
        elements = frozenset({3, 17, 99, 4096})
        assert deterministic_choice(elements) == min(elements, key=_mix)
        assert deterministic_choice(elements) == deterministic_choice(
            frozenset(sorted(elements))
        )

    def test_sanitized_psj_routes_identically_across_instances(self):
        rows = [frozenset({i, i + 7, i * 3 % 100}) for i in range(1, 60)]
        a = deterministic_partitioner(PSJPartitioner(8, seed=1))
        b = deterministic_partitioner(PSJPartitioner(8, seed=99))
        for elements in rows:
            assert a.assign_r(elements) == b.assign_r(elements)
            # repeated calls agree too (no RNG state consumed)
            assert a.assign_r(elements) == a.assign_r(elements)

    def test_sanitizing_is_idempotent(self):
        sanitized = deterministic_partitioner(PSJPartitioner(8))
        assert deterministic_partitioner(sanitized) is sanitized

    def test_dcj_passes_through_unchanged(self):
        from repro.core.modulo import dcj_with_any_k

        partitioner = dcj_with_any_k(8, 10.0, 20.0)
        assert deterministic_partitioner(partitioner) is partitioner


def _summaries(partitioner, slices):
    return [
        summarize_batches(sid, [_batch(rows)], partitioner)
        for sid, rows in slices.items()
    ]


def _targets(planner, partitioner, r_sets):
    """Each R set's target shard ids, the sets routed as one batch."""
    __, elements, offsets = _batch(list(enumerate(r_sets)))
    masks = planner.targets(
        *partitioner.assign_r_batch(elements, offsets), len(r_sets))
    return [
        [summary.shard_id for summary, mask in zip(planner.summaries, masks)
         if mask[row]]
        for row in range(len(r_sets))
    ]


class TestReplicationPlanner:
    def test_occupancy_mode_ships_to_every_occupied_shard(self):
        partitioner = deterministic_partitioner(PSJPartitioner(4))
        slices = {
            0: [(1, frozenset({0, 4}))],      # partitions of its S rows
            1: [(2, frozenset({1, 5, 9}))],
            2: [],                            # empty shard: never a target
        }
        planner = ReplicationPlanner(_summaries(partitioner, slices))
        r = frozenset({0, 1, 2})
        (targets,) = _targets(planner, partitioner, [r])
        assert 2 not in targets

    def test_exact_accounting(self):
        partitioner = deterministic_partitioner(PSJPartitioner(4))
        slices = {
            0: [(1, frozenset({0, 1})), (2, frozenset({2, 3}))],
            1: [(3, frozenset({1, 2}))],
        }
        planner = ReplicationPlanner(_summaries(partitioner, slices))
        r_rows = [frozenset({i}) for i in range(8)]
        _targets(planner, partitioner, r_rows[:5])
        _targets(planner, partitioner, r_rows[5:])
        report = planner.report()
        assert report.r_rows == len(r_rows)
        assert report.s_rows == 3
        # every R row contributed exactly its |partitions| to logical y
        assert report.logical_r_entries == sum(
            len(partitioner.assign_r(e)) for e in r_rows
        )
        assert report.logical_s_entries == sum(
            len(partitioner.assign_s(e))
            for rows in slices.values() for __, e in rows
        )
        assert 1.0 <= report.replication_factor <= 2.0
        # physical + pruned visits account for every (row, shard) pair
        assert (report.physical_r_rows + report.pruned_occupancy
                ) == len(r_rows) * len(slices)

    def test_signature_mode_is_sound(self):
        """Occupancy pruning never skips a shard holding a superset."""
        partitioner = deterministic_partitioner(PSJPartitioner(4))
        s_sets = {
            0: [(1, frozenset({1, 2, 3, 4})), (2, frozenset({10, 11}))],
            1: [(3, frozenset({5, 6, 7, 8, 9}))],
        }
        planner = ReplicationPlanner(_summaries(partitioner, s_sets))
        r_sets = (frozenset({1, 2}), frozenset({5, 9}), frozenset({10}),
                  frozenset({2, 3, 4}), frozenset({999}))
        for r, targets in zip(r_sets, _targets(planner, partitioner, r_sets)):
            for sid, rows in s_sets.items():
                if any(r <= s for __, s in rows):
                    assert sid in targets, (r, sid)

    def test_signature_mode_prunes_by_cardinality(self):
        """Only partition occupancy prunes: a row larger than every set
        on a shard still goes wherever its partitions are occupied, so
        the shard's comparisons (and x) are those of one database."""
        partitioner = deterministic_partitioner(PSJPartitioner(2))
        slices = {0: [(1, frozenset({1, 2})), (2, frozenset({3, 8}))]}
        (summary,) = _summaries(partitioner, slices)
        assert np.flatnonzero(summary.occupied).tolist() == [0, 1]
        planner = ReplicationPlanner([summary])
        big = frozenset(range(1, 10))  # |r| > max |s| on the shard
        assert _targets(planner, partitioner, [big]) == [[0]]
        assert planner.report().pruned_occupancy == 0

    def test_unknown_mode_rejected(self):
        # The planner has one mode; there is nothing to select.
        with pytest.raises(TypeError):
            ReplicationPlanner([], mode="signature")


class TestShardSummary:
    def test_summary_digest_matches_rows(self):
        partitioner = deterministic_partitioner(PSJPartitioner(4))
        rows = [(1, frozenset({1, 2, 3})), (2, frozenset({4, 5}))]
        summary = summarize_batches(7, [_batch(rows[:1]), _batch(rows[1:])],
                                    partitioner)
        assert summary.shard_id == 7
        assert summary.rows == 2
        assert summary.entries == sum(
            len(partitioner.assign_s(e)) for __, e in rows
        )
        assert set(np.flatnonzero(summary.occupied)) == set().union(
            *(partitioner.assign_s(e) for __, e in rows))


class TestPlacementReport:
    def test_explain_lines_report_the_replication_factor(self):
        report = PlacementReport(
            shards=3, r_rows=100, s_rows=50,
            logical_r_entries=150, logical_s_entries=90,
            physical_r_rows=220, physical_r_entries=330,
            pruned_occupancy=80,
        )
        text = "\n".join(report.explain_lines())
        assert "factor 2.200" in text
        assert "3 shards" in text
        assert report.logical_entries == 240
        assert report.as_dict()["replication_factor"] == 2.2
