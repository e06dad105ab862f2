"""Benchmark for Figure 9: PSJ execution time vs partition count.

Times one full disk-based PSJ join per k on the case-study workload, as
the figure experiment runs it (``paper_testbed_join``), and
asserts the figure's story: PSJ's replication (I/O) grows so fast with k
that increasing the partition count does not pay off, and PSJ moves far
more partition data than DCJ at every matching k.
"""

import pytest

from repro.analysis.simulate import make_partitioner
from repro.core.operator import run_disk_join
from repro.experiments.case_study import paper_testbed_join

K_VALUES = (2, 8, 32, 128)


@pytest.mark.parametrize("k", K_VALUES)
def test_bench_psj_join_vs_k(benchmark, case_study_relations, k):
    lhs, rhs = case_study_relations

    def run():
        partitioner = make_partitioner("PSJ", k, 50, 100, seed=7)
        return paper_testbed_join(lhs, rhs, partitioner, buffer_pages=256)

    result, metrics = benchmark.pedantic(run, rounds=1, iterations=1)
    assert metrics.result_size >= 5
    benchmark.extra_info["comparisons"] = metrics.signature_comparisons
    benchmark.extra_info["replicated"] = metrics.replicated_signatures


def test_fig9_psj_replication_dominates(case_study_relations):
    """PSJ replicates far more than DCJ at every k (the I/O-bound story),
    and its comparison factor barely improves until k is large."""
    lhs, rhs = case_study_relations
    for k in (8, 32, 128):
        psj = make_partitioner("PSJ", k, 50, 100, seed=7)
        dcj = make_partitioner("DCJ", k, 50, 100, seed=7)
        __, psj_metrics = run_disk_join(lhs, rhs, psj)
        __, dcj_metrics = run_disk_join(lhs, rhs, dcj)
        assert psj_metrics.replicated_signatures > 2 * dcj_metrics.replicated_signatures
    # comp_PSJ ≈ 0.95 at k=32 (paper): barely below 1.
    psj = make_partitioner("PSJ", 32, 50, 100, seed=7)
    __, metrics = run_disk_join(lhs, rhs, psj)
    assert metrics.comparison_factor > 0.9
