"""Benchmark for Figure 8: DCJ execution time vs partition count.

Times one full disk-based DCJ join per k on the case-study workload, as
the figure experiment runs it (``paper_testbed_join``), and
asserts the figure's shape: an interior k beats both extremes and the
comparison count falls monotonically while replication rises.
"""

import pytest

from repro.analysis.simulate import make_partitioner
from repro.core.operator import run_disk_join
from repro.experiments.case_study import paper_testbed_join

K_VALUES = (2, 8, 32, 128)


@pytest.mark.parametrize("k", K_VALUES)
def test_bench_dcj_join_vs_k(benchmark, case_study_relations, k):
    lhs, rhs = case_study_relations

    def run():
        partitioner = make_partitioner("DCJ", k, 50, 100, seed=7)
        return paper_testbed_join(lhs, rhs, partitioner, buffer_pages=256)

    result, metrics = benchmark.pedantic(run, rounds=1, iterations=1)
    assert metrics.result_size >= 5  # planted pairs all found
    benchmark.extra_info["comparisons"] = metrics.signature_comparisons
    benchmark.extra_info["replicated"] = metrics.replicated_signatures
    benchmark.extra_info["comp_factor"] = round(metrics.comparison_factor, 4)
    benchmark.extra_info["repl_factor"] = round(metrics.replication_factor, 4)


def test_fig8_shape(case_study_relations):
    """Comparisons fall and replication rises monotonically in k."""
    lhs, rhs = case_study_relations
    comparisons, replicated = [], []
    for k in K_VALUES:
        partitioner = make_partitioner("DCJ", k, 50, 100, seed=7)
        __, metrics = run_disk_join(lhs, rhs, partitioner)
        comparisons.append(metrics.signature_comparisons)
        replicated.append(metrics.replicated_signatures)
    assert comparisons == sorted(comparisons, reverse=True)
    assert replicated == sorted(replicated)
