"""Tests for the expected-selectivity formula (Section 3)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.selectivity import expected_result_size, expected_selectivity
from repro.analysis.simulate import monte_carlo_selectivity
from repro.errors import ConfigurationError


class TestPaperValues:
    def test_small_example(self):
        # θ_R=2, θ_S=3, D=10 -> ≈ 0.066
        assert expected_selectivity(2, 3, 10) == pytest.approx(0.0667, abs=1e-3)

    def test_expected_result_for_4x4_relations(self):
        # "the expected number of joining tuples for relations having 4
        # tuples each is 0.066 · 4² ≈ 1"
        assert expected_result_size(4, 4, 2, 3, 10) == pytest.approx(1.07, abs=0.05)

    def test_large_domain_near_zero(self):
        # θ_R=10, θ_S=20, D=1000 -> below 1e-18
        assert expected_selectivity(10, 20, 1000) < 1e-18

    def test_billion_tuple_joke(self):
        # "a join between R and S with a billion tuples each is expected
        # to return just one tuple"
        expected = expected_result_size(10**9, 10**9, 10, 20, 1000)
        assert 0.1 < expected < 10


class TestEdgeCases:
    def test_theta_r_greater_than_theta_s_is_zero(self):
        assert expected_selectivity(5, 3, 100) == 0.0

    def test_empty_r_always_joins(self):
        assert expected_selectivity(0, 5, 100) == 1.0

    def test_equal_cardinalities(self):
        # Only the identical set joins: 1 / C(D, θ)
        assert expected_selectivity(2, 2, 4) == pytest.approx(1 / 6)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            expected_selectivity(2, 3, 2)
        with pytest.raises(ConfigurationError):
            expected_selectivity(-1, 3, 10)


class TestMonteCarloAgreement:
    @pytest.mark.parametrize(
        "theta_r,theta_s,domain", [(2, 3, 10), (2, 5, 12), (1, 6, 8)]
    )
    def test_formula_matches_sampling(self, theta_r, theta_s, domain):
        analytical = expected_selectivity(theta_r, theta_s, domain)
        empirical = monte_carlo_selectivity(
            theta_r, theta_s, domain, trials=20_000, seed=1
        )
        assert empirical == pytest.approx(analytical, rel=0.15)

    def test_monte_carlo_validation(self):
        with pytest.raises(ConfigurationError):
            monte_carlo_selectivity(2, 20, 10)


@settings(max_examples=50)
@given(
    theta_r=st.integers(min_value=0, max_value=30),
    extra=st.integers(min_value=0, max_value=30),
    slack=st.integers(min_value=0, max_value=100),
)
@example(theta_r=4, extra=2, slack=0)  # D = θ_S: lgamma rounds above 1
def test_selectivity_is_probability(theta_r, extra, slack):
    theta_s = theta_r + extra
    domain = theta_s + slack
    if domain == 0:
        domain = 1
    value = expected_selectivity(theta_r, theta_s, domain)
    assert 0.0 <= value <= 1.0
