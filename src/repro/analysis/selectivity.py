"""Expected selectivity of a set containment join (paper, Section 3).

Under the model assumptions (uniform elements from a domain of size D,
fixed cardinalities θ_R and θ_S), the probability that a random R-set is
contained in a random S-set is::

    θ_S! (D - θ_R)!         C(θ_S, θ_R)
    ----------------   =   -------------
    (θ_S - θ_R)! D!          C(D, θ_R)

e.g. θ_R=2, θ_S=3, D=10 gives ≈0.066 — about one joining pair for the
paper's 4×4 example relations — and θ_R=10, θ_S=20, D=1000 gives < 1e-18
("a join between R and S with a billion tuples each is expected to return
just one tuple").
"""

from __future__ import annotations

import math

from ..errors import ConfigurationError

__all__ = ["expected_selectivity", "expected_result_size"]


def expected_selectivity(theta_r: int, theta_s: int, domain_size: int) -> float:
    """P(r ⊆ s) for random fixed-cardinality sets from a domain of size D."""
    if theta_r < 0 or theta_s < 0:
        raise ConfigurationError("cardinalities must be non-negative")
    if domain_size < theta_s:
        raise ConfigurationError(
            f"domain size {domain_size} smaller than θ_S={theta_s}"
        )
    if theta_r > theta_s:
        return 0.0
    # C(θ_S, θ_R) / C(D, θ_R), computed in log space for large D.
    log_p = (
        math.lgamma(theta_s + 1)
        - math.lgamma(theta_s - theta_r + 1)
        + math.lgamma(domain_size - theta_r + 1)
        - math.lgamma(domain_size + 1)
    )
    # lgamma rounding can leave log_p a few ulps above 0 when D = θ_S.
    return min(1.0, math.exp(log_p))


def expected_result_size(
    r_size: int, s_size: int, theta_r: int, theta_s: int, domain_size: int
) -> float:
    """Expected number of joining tuples: |R|·|S|·selectivity."""
    return r_size * s_size * expected_selectivity(theta_r, theta_s, domain_size)
