"""Tests for relation statistics collection."""

import pytest

from repro.analysis.statistics import collect_statistics
from repro.core.sets import Relation
from repro.data.workloads import uniform_workload
from repro.errors import ConfigurationError


class TestExactStatistics:
    def test_basic_summary(self):
        relation = Relation.from_sets([{1, 2}, {3}, set(), {1, 2, 3, 4}],
                                      name="T")
        stats = collect_statistics(relation)
        assert stats.size == 4
        assert stats.min_cardinality == 0
        assert stats.max_cardinality == 4
        assert stats.mean_cardinality == pytest.approx(7 / 4)
        assert stats.median_cardinality == pytest.approx(1.5)
        assert stats.empty_sets == 1
        assert stats.distinct_elements == 4
        assert stats.domain_bound == 5
        assert not stats.sampled

    def test_odd_count_median(self):
        relation = Relation.from_sets([{1}, {1, 2}, {1, 2, 3}])
        assert collect_statistics(relation).median_cardinality == 2.0

    def test_empty_relation(self):
        stats = collect_statistics(Relation(name="E"))
        assert stats.size == 0
        assert stats.mean_cardinality == 0.0

    def test_describe_output(self):
        relation = Relation.from_sets([{1, 2}], name="R")
        text = collect_statistics(relation).describe()
        assert "relation R" in text
        assert "cardinality" in text


class TestSampledStatistics:
    def test_sampling_flag_and_accuracy(self):
        lhs, __ = uniform_workload(500, 10, 20, 40, seed=3).materialize()
        exact = collect_statistics(lhs)
        sampled = collect_statistics(lhs, sample_size=100, seed=1)
        assert sampled.sampled
        assert sampled.size == exact.size  # size is always exact
        assert sampled.mean_cardinality == pytest.approx(
            exact.mean_cardinality, rel=0.1
        )

    def test_sample_bigger_than_relation_is_exact(self):
        relation = Relation.from_sets([{1}, {2}])
        stats = collect_statistics(relation, sample_size=100)
        assert not stats.sampled

    def test_invalid_sample_size(self):
        relation = Relation.from_sets([{1}])
        with pytest.raises(ConfigurationError):
            collect_statistics(relation, sample_size=0)


def _row_loop(relation, sample_size=None, seed=0):
    """The statistics as the per-row loop the array version replaced
    computed them."""
    import random

    rows = list(relation)
    if sample_size is not None and sample_size < len(rows):
        rows = random.Random(seed).sample(rows, sample_size)
    cardinalities = sorted(row.cardinality for row in rows)
    middle = len(cardinalities) // 2
    median = (float(cardinalities[middle]) if len(cardinalities) % 2 else
              (cardinalities[middle - 1] + cardinalities[middle]) / 2.0)
    return (
        cardinalities[0], cardinalities[-1],
        sum(cardinalities) / len(cardinalities), median,
        sum(1 for value in cardinalities if value == 0),
        len(set().union(*(row.elements for row in rows))),
    )


@pytest.mark.parametrize("sample_size", [None, 1, 37, 120, 500])
def test_array_statistics_equal_the_row_loop(sample_size):
    import random

    rng = random.Random(sample_size)
    relation = Relation(
        [(tid * 3, rng.sample(range(300), rng.randint(0, 12)))
         for tid in range(120)]
        + [(10**6, {2**63 + 1, 5})],
        "R",
    )
    stats = collect_statistics(relation, sample_size=sample_size, seed=4)
    assert (
        stats.min_cardinality, stats.max_cardinality,
        stats.mean_cardinality, stats.median_cardinality, stats.empty_sets,
        stats.distinct_elements,
    ) == _row_loop(relation, sample_size, seed=4)
