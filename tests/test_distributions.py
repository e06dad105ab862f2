"""Tests for the synthetic element and cardinality distributions."""

import random

import pytest

from repro.data.distributions import (
    CARDINALITY_DISTRIBUTIONS,
    ELEMENT_DISTRIBUTIONS,
    BimodalCardinality,
    ClusteredElements,
    ConstantCardinality,
    NormalCardinality,
    NormalElements,
    SelfSimilarElements,
    UniformCardinality,
    UniformElements,
    ZipfCardinality,
    ZipfElements,
    cardinality_distribution,
    element_distribution,
)
from repro.errors import ConfigurationError


class TestElementDistributions:
    @pytest.mark.parametrize("name", ELEMENT_DISTRIBUTIONS)
    def test_registry_builds_and_draws_in_domain(self, name):
        distribution = element_distribution(name, 1000)
        rng = random.Random(5)
        for __ in range(500):
            assert 0 <= distribution.draw(rng) < 1000

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            element_distribution("exotic", 100)

    def test_sample_set_distinct_elements(self):
        distribution = UniformElements(50)
        rng = random.Random(1)
        for cardinality in (0, 1, 25, 50):
            sample = distribution.sample_set(rng, cardinality)
            assert len(sample) == cardinality

    @pytest.mark.parametrize("domain", [1, 2, 3, 7, 8, 150, 1 << 20, 10_000, 2**64 - 1])
    def test_uniform_sets_are_the_draws_randrange_makes(self, domain):
        """``UniformElements`` draws through one closure instead of
        ``draw`` → ``randrange``; the sets and the generator's state after
        them must be those of the ``draw`` loop it replaced."""
        fast, reference = random.Random(domain), random.Random(domain)
        uniform = UniformElements(domain)
        for cardinality in (0, 1, min(domain, 9), min(domain, 40)):
            expected = set()
            while len(expected) < cardinality:
                expected.add(uniform.draw(reference))
            assert uniform.sample_set(fast, cardinality) == expected
        assert fast.getstate() == reference.getstate()

    def test_sample_set_too_large_rejected(self):
        with pytest.raises(ConfigurationError):
            UniformElements(10).sample_set(random.Random(0), 11)

    def test_skewed_distribution_terminates_on_tiny_support(self):
        """Clustered draws cover a small slice of the domain; rejection
        sampling must still terminate by topping up uniformly."""
        distribution = ClusteredElements(100, num_clusters=1,
                                         cluster_fraction=0.05)
        sample = distribution.sample_set(random.Random(2), 50)
        assert len(sample) == 50

    def test_zipf_mass_concentrates_on_low_ranks(self):
        distribution = ZipfElements(1000, skew=1.0)
        rng = random.Random(3)
        draws = [distribution.draw(rng) for __ in range(3000)]
        low = sum(1 for value in draws if value < 100)
        assert low / len(draws) > 0.5

    def test_selfsimilar_8020(self):
        distribution = SelfSimilarElements(1000, h=0.2)
        rng = random.Random(4)
        draws = [distribution.draw(rng) for __ in range(5000)]
        in_first_fifth = sum(1 for value in draws if value < 200)
        assert in_first_fifth / len(draws) == pytest.approx(0.8, abs=0.05)

    def test_normal_centered(self):
        distribution = NormalElements(1000, spread=0.1)
        rng = random.Random(5)
        draws = [distribution.draw(rng) for __ in range(3000)]
        mean = sum(draws) / len(draws)
        assert mean == pytest.approx(500, abs=30)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            UniformElements(0)
        with pytest.raises(ConfigurationError):
            ZipfElements(100, skew=0)
        with pytest.raises(ConfigurationError):
            SelfSimilarElements(100, h=1.5)
        with pytest.raises(ConfigurationError):
            NormalElements(100, spread=0)
        with pytest.raises(ConfigurationError):
            ClusteredElements(100, num_clusters=0)


class TestCardinalityDistributions:
    @pytest.mark.parametrize("name", CARDINALITY_DISTRIBUTIONS)
    def test_registry_builds_positive_draws(self, name):
        distribution = cardinality_distribution(name, theta=20)
        rng = random.Random(7)
        draws = [distribution.draw(rng) for __ in range(300)]
        assert all(value >= 1 for value in draws)

    @pytest.mark.parametrize("name", CARDINALITY_DISTRIBUTIONS)
    def test_mean_close_to_empirical(self, name):
        distribution = cardinality_distribution(name, theta=20)
        rng = random.Random(8)
        draws = [distribution.draw(rng) for __ in range(8000)]
        empirical = sum(draws) / len(draws)
        assert empirical == pytest.approx(distribution.mean(), rel=0.1)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            cardinality_distribution("exotic", 10)

    def test_constant(self):
        distribution = ConstantCardinality(7)
        assert distribution.draw(random.Random(0)) == 7
        assert distribution.mean() == 7.0

    def test_uniform_band(self):
        distribution = UniformCardinality(45, 55)
        rng = random.Random(1)
        draws = {distribution.draw(rng) for __ in range(1000)}
        assert min(draws) >= 45 and max(draws) <= 55
        assert distribution.mean() == 50.0

    def test_bimodal_mixture(self):
        distribution = BimodalCardinality(10, 100, high_fraction=0.25)
        assert distribution.mean() == pytest.approx(0.25 * 100 + 0.75 * 10)
        rng = random.Random(2)
        assert {distribution.draw(rng) for __ in range(200)} == {10, 100}

    def test_normal_floor(self):
        distribution = NormalCardinality(2, 5)
        rng = random.Random(3)
        assert all(distribution.draw(rng) >= 1 for __ in range(500))

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            ConstantCardinality(-1)
        with pytest.raises(ConfigurationError):
            UniformCardinality(10, 5)
        with pytest.raises(ConfigurationError):
            NormalCardinality(0, 1)
        with pytest.raises(ConfigurationError):
            ZipfCardinality(5, 2)
        with pytest.raises(ConfigurationError):
            BimodalCardinality(10, 5)
        with pytest.raises(ConfigurationError):
            BimodalCardinality(5, 10, high_fraction=2.0)
