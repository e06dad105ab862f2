"""Integration tests for the disk-based set-containment-join operator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.simulate import make_partitioner
from repro.core.dcj import DCJPartitioner
from repro.core.hashing import BitstringHashFamily
from repro.core.lsj import LSJPartitioner
from repro.core.operator import SetContainmentJoin, Testbed, run_disk_join
from repro.core.psj import PSJPartitioner
from repro.core.sets import Relation, containment_pairs_nested_loop
from repro.errors import ConfigurationError


def all_partitioners(k=8, theta_r=8, theta_s=16):
    return [
        DCJPartitioner.for_cardinalities(k, theta_r, theta_s),
        PSJPartitioner(k, seed=5),
        LSJPartitioner.for_cardinalities(k, theta_r, theta_s),
    ]


class TestEndToEnd:
    def test_all_algorithms_match_brute_force(self, small_workload):
        lhs, rhs = small_workload
        expected = containment_pairs_nested_loop(lhs, rhs)
        for partitioner in all_partitioners():
            result, metrics = run_disk_join(lhs, rhs, partitioner)
            assert result == expected, partitioner.describe()
            assert metrics.result_size == len(expected)
            assert metrics.false_positives >= 0

    def test_paper_example_on_disk(self, paper_r, paper_s, paper_truth):
        for partitioner in all_partitioners(k=8, theta_r=2, theta_s=3):
            result, __ = run_disk_join(
                paper_r, paper_s, partitioner, signature_bits=4
            )
            assert result == paper_truth

    def test_file_backed_testbed(self, tmp_path, small_workload):
        lhs, rhs = small_workload
        expected = containment_pairs_nested_loop(lhs, rhs)
        result, __ = run_disk_join(
            lhs, rhs, PSJPartitioner(4, seed=1),
            path=str(tmp_path / "join.db"),
        )
        assert result == expected
        assert (tmp_path / "join.db").stat().st_size > 0


class TestMetricsConsistency:
    def test_comparisons_match_partition_assignment(self, small_workload):
        """The operator performs exactly Σ|R_i|·|S_i| signature comparisons."""
        from repro.core.partitioning import PartitionAssignment

        lhs, rhs = small_workload
        partitioner = DCJPartitioner.for_cardinalities(16, 8, 16)
        assignment = PartitionAssignment.compute(partitioner, lhs, rhs)
        __, metrics = run_disk_join(lhs, rhs, partitioner)
        assert metrics.signature_comparisons == assignment.comparisons
        assert metrics.replicated_signatures == assignment.replicated_signatures
        assert metrics.comparison_factor == pytest.approx(
            assignment.comparison_factor
        )

    def test_phase_metrics_populated(self, small_workload):
        lhs, rhs = small_workload
        __, metrics = run_disk_join(lhs, rhs, PSJPartitioner(8, seed=2))
        assert metrics.partitioning.seconds > 0
        assert metrics.joining.seconds > 0
        assert metrics.partitioning.page_writes > 0
        assert metrics.total_seconds == pytest.approx(
            metrics.partitioning.seconds
            + metrics.joining.seconds
            + metrics.verification.seconds
        )

    def test_candidates_bound_results(self, small_workload):
        lhs, rhs = small_workload
        __, metrics = run_disk_join(lhs, rhs, PSJPartitioner(8, seed=2))
        assert metrics.result_size + metrics.false_positives == metrics.candidates


class TestOperatorConfiguration:
    def test_requires_loaded_testbed(self):
        testbed = Testbed()
        with pytest.raises(ConfigurationError):
            SetContainmentJoin(testbed, PSJPartitioner(4))

    def test_block_nested_loop_small_blocks(self, small_workload, monkeypatch):
        """Tiny block budget forces multiple S re-scans; result unchanged."""
        from repro.core import operator

        lhs, rhs = small_workload
        expected = containment_pairs_nested_loop(lhs, rhs)
        __, unblocked = run_disk_join(
            lhs, rhs, PSJPartitioner(4, seed=1), resident_partitions=4
        )
        blocks = []
        compare_packed = operator.compare_packed

        def counting(bits, r_block, s_batches, add):
            blocks.append(len(r_block[1]))
            return compare_packed(bits, r_block, s_batches, add)

        monkeypatch.setattr(operator, "compare_packed", counting)
        monkeypatch.setattr(operator, "_BLOCK_ENTRIES", 8)
        with Testbed() as testbed:
            testbed.load(lhs, rhs)
            join = SetContainmentJoin(
                testbed, PSJPartitioner(4, seed=1), resident_partitions=4
            )
            result, metrics = join.run()
        assert result == expected
        assert metrics.signature_comparisons == unblocked.signature_comparisons
        # Memory-resident runs are cut every 8 entries: each block is one
        # more pass over its partition's S side.
        assert max(blocks) == 8 and len(blocks) > 4

    def test_warm_cache_runs(self, small_workload):
        lhs, rhs = small_workload
        with Testbed() as testbed:
            testbed.load(lhs, rhs)
            join = SetContainmentJoin(testbed, PSJPartitioner(4, seed=1))
            first, __ = join.run(cold_cache=True)
            second, __ = join.run(cold_cache=False)
        assert first == second

    def test_small_buffer_pool(self, small_workload):
        lhs, rhs = small_workload
        expected = containment_pairs_nested_loop(lhs, rhs)
        result, metrics = run_disk_join(
            lhs, rhs, PSJPartitioner(8, seed=1), buffer_pages=16
        )
        assert result == expected
        assert metrics.total_page_reads > 0  # misses force real reads

    @pytest.mark.parametrize("policy", ["lru", "clock", "fifo"])
    def test_buffer_policies(self, small_workload, policy):
        lhs, rhs = small_workload
        expected = containment_pairs_nested_loop(lhs, rhs)
        result, __ = run_disk_join(
            lhs, rhs, PSJPartitioner(8, seed=1),
            buffer_pages=24, buffer_policy=policy,
        )
        assert result == expected


class TestEdgeCases:
    def test_empty_relations(self):
        empty = Relation(name="R")
        other = Relation.from_sets([{1, 2}], name="S")
        result, metrics = run_disk_join(empty, other, PSJPartitioner(4))
        assert result == set()
        assert metrics.signature_comparisons == 0

    def test_empty_sets_in_relations(self):
        lhs = Relation.from_sets([set(), {1}])
        rhs = Relation.from_sets([set(), {1, 2}])
        expected = containment_pairs_nested_loop(lhs, rhs)
        for partitioner in all_partitioners(k=4, theta_r=1, theta_s=2):
            result, __ = run_disk_join(lhs, rhs, partitioner, signature_bits=8)
            assert result == expected, partitioner.describe()

    def test_duplicate_sets(self):
        lhs = Relation.from_sets([{1, 2}] * 5)
        rhs = Relation.from_sets([{1, 2, 3}] * 4)
        result, __ = run_disk_join(lhs, rhs, PSJPartitioner(4, seed=3))
        assert result == {(r, s) for r in range(5) for s in range(4)}

    def test_large_sets_exceeding_page_size(self):
        """Sets bigger than one B-tree record round-trip via chunking."""
        lhs = Relation.from_sets([set(range(0, 9000, 3))])
        rhs = Relation.from_sets([set(range(9000))])
        result, __ = run_disk_join(
            lhs, rhs, PSJPartitioner(4, seed=1), payload_size=100
        )
        assert result == {(0, 0)}


@settings(max_examples=15, deadline=None)
@given(
    r_sets=st.lists(st.frozensets(st.integers(0, 150), max_size=8), max_size=12),
    s_sets=st.lists(st.frozensets(st.integers(0, 150), max_size=12), max_size=12),
    algorithm=st.sampled_from(["DCJ", "PSJ", "LSJ"]),
    k=st.sampled_from([2, 4, 16]),
)
def test_disk_join_equals_brute_force(r_sets, s_sets, algorithm, k):
    """Property: the full disk pipeline computes exactly the join."""
    lhs = Relation.from_sets(r_sets)
    rhs = Relation.from_sets(s_sets)
    partitioner = make_partitioner(algorithm, k, 5, 8, seed=1)
    result, __ = run_disk_join(lhs, rhs, partitioner, signature_bits=32)
    assert result == containment_pairs_nested_loop(lhs, rhs)
