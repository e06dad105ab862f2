"""Analytical comparison and replication factors (Table 7 of the paper).

All formulas take the model parameters of the paper's Section 3:

* ``k``      -- number of partitions (power of two for DCJ/LSJ),
* ``theta_r``, ``theta_s`` -- set cardinalities in R and S (θ_R ≤ θ_S),
* ``lam = theta_s / theta_r`` -- cardinality ratio λ,
* ``rho = |S| / |R|``         -- relation size ratio ρ.

They assume uniformly drawn elements from a large domain, fixed
cardinalities, and nested-loop partition joining — the assumptions the
paper relaxes experimentally (see :mod:`repro.analysis.simulate` for the
accuracy study).

Derivations are summarized in DESIGN.md §1.3; each closed form below is
property-tested against direct simulation of the partitioning algorithms.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "comp_psj",
    "repl_psj",
    "repl_psj_bound",
    "comp_dcj",
    "repl_dcj",
    "comp_lsj",
    "repl_lsj",
    "dcj_replication_matrices",
    "dcj_level_copies",
    "levels_of",
    "ALGORITHMS",
    "comparison_factor",
    "replication_factor",
    "predict_quantities",
]

ALGORITHMS = ("PSJ", "DCJ", "LSJ")


def levels_of(k: float) -> float:
    """log2(k); the DCJ/LSJ *algorithms* need integer levels (power-of-two
    k), but the Table 7 formulas extend continuously, which is how the
    paper plots them against arbitrary k."""
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    return math.log2(k)


def _matrix_power_real(matrix: np.ndarray, exponent: float) -> np.ndarray:
    """Real (possibly fractional) matrix power via eigendecomposition.

    The DCJ replication matrices have distinct real positive-dominant
    eigenvalues, so the principal power is well defined; tiny imaginary
    residue from the eigensolver is discarded.
    """
    if float(exponent).is_integer():
        return np.linalg.matrix_power(matrix, int(exponent))
    eigenvalues, vectors = np.linalg.eig(matrix)
    powered = np.diag(np.asarray(eigenvalues, dtype=complex) ** exponent)
    return (vectors @ powered @ np.linalg.inv(vectors)).real


def _check_common(k: int, theta_r: float, theta_s: float) -> None:
    # λ = θ_S/θ_R < 1 is allowed: the join is then (almost) empty, but the
    # Table 7 formulas stay well defined and the paper plots them that way
    # (Figures 5 and 7 sweep θ_S below θ_R).
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if theta_r <= 0 or theta_s <= 0:
        raise ConfigurationError("set cardinalities must be positive")


# ----------------------------------------------------------------------
# PSJ
# ----------------------------------------------------------------------

def comp_psj(k: int, theta_s: float) -> float:
    """PSJ comparison factor: ``1 - (1 - 1/k)^θ_S``.

    The probability that the single element routing an R-tuple collides
    with one of the (expected) partitions occupied by an S-tuple.
    Consistent with every value the paper quotes: ≈1 at θ_S=1000, k=128;
    ≈0.95 at θ_S=100, k=32; crossing comp_DCJ near k≈40 for θ=10.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if theta_s <= 0:
        raise ConfigurationError("θ_S must be positive")
    return 1.0 - (1.0 - 1.0 / k) ** theta_s


def repl_psj(k: int, theta_s: float, rho: float = 1.0) -> float:
    """PSJ replication factor.

    R-tuples are stored once; each S-tuple occupies ``k(1-(1-1/k)^θ_S)``
    expected distinct partitions.  Weighted by relation-size shares
    ``1/(1+ρ)`` and ``ρ/(1+ρ)``.
    """
    if rho <= 0:
        raise ConfigurationError("ρ must be positive")
    expected_s_copies = k * (1.0 - (1.0 - 1.0 / k) ** theta_s)
    return 1.0 / (1.0 + rho) + rho / (1.0 + rho) * expected_s_copies


def repl_psj_bound(theta_s: float, rho: float = 1.0) -> float:
    """The k→∞ bound the paper notes: ``1/(1+ρ) + ρ/(1+ρ)·θ_S``."""
    return 1.0 / (1.0 + rho) + rho / (1.0 + rho) * theta_s


# ----------------------------------------------------------------------
# DCJ
# ----------------------------------------------------------------------

def comp_dcj(k: int, theta_r: float, theta_s: float) -> float:
    """DCJ comparison factor: ``(1 - (1/(1+λ))(λ/(1+λ))^λ)^{log2 k}``.

    Depends on the cardinality *ratio* only (the thick single curve of the
    paper's Figure 4).
    """
    _check_common(k, theta_r, theta_s)
    lam = theta_s / theta_r
    per_step = 1.0 - (1.0 / (1.0 + lam)) * (lam / (1.0 + lam)) ** lam
    return per_step ** levels_of(k)


def dcj_replication_matrices(lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-level expected-copy transition matrices (M_R, M_S) of Table 7.

    State vector = expected copies residing at (α-nodes, β-nodes) of the
    operator tree; the root is an α-node.  With optimal hash functions the
    no-fire probability on R-sets is ``q = λ/(1+λ)`` and the firing
    probability on S-sets is ``p_S = 1 - q^λ``:

    * an R-tuple at an α-node moves to the α-child w.p. ``1-q`` or the
      β-child w.p. ``q``; at a β-node it is *replicated* to both children
      when the function does not fire (w.p. ``q``), else moves to the
      α-child — giving ``M_R = [[1-q, 1], [q, q]]``;
    * an S-tuple at an α-node is replicated to both children when the
      function fires (w.p. ``p_S``), else moves to the β-child — giving
      ``M_S = [[p_S, p_S], [1, 1-p_S]]``.
    """
    if lam <= 0:
        raise ConfigurationError("λ must be positive")
    q = lam / (1.0 + lam)
    p_s = 1.0 - q**lam
    m_r = np.array([[1.0 - q, 1.0], [q, q]])
    m_s = np.array([[p_s, p_s], [1.0, 1.0 - p_s]])
    return m_r, m_s


def dcj_level_copies(
    levels: int, theta_r: float, theta_s: float
) -> "list[tuple[float, float]]":
    """Expected copies of one R- and one S-tuple after each DCJ level.

    Entry ``i`` is ``(E[copies of an R-tuple], E[copies of an S-tuple])``
    after ``i+1`` applications of the Table 7 transition matrices —
    the per-level growth of the paper's ``y`` that the plan inspector
    annotates the α/β operator tree with.
    """
    if levels < 1:
        raise ConfigurationError(f"levels must be >= 1, got {levels}")
    if theta_r <= 0 or theta_s <= 0:
        raise ConfigurationError("set cardinalities must be positive")
    m_r, m_s = dcj_replication_matrices(theta_s / theta_r)
    ones = np.ones(2)
    state_r = np.array([1.0, 0.0])
    state_s = np.array([1.0, 0.0])
    out = []
    for __ in range(levels):
        state_r = m_r @ state_r
        state_s = m_s @ state_s
        out.append((float(ones @ state_r), float(ones @ state_s)))
    return out


def repl_dcj(k: int, theta_r: float, theta_s: float, rho: float = 1.0) -> float:
    """DCJ replication factor via the Table 7 matrix-power form."""
    _check_common(k, theta_r, theta_s)
    if rho <= 0:
        raise ConfigurationError("ρ must be positive")
    levels = levels_of(k)
    m_r, m_s = dcj_replication_matrices(theta_s / theta_r)
    ones = np.ones(2)
    start = np.array([1.0, 0.0])
    copies_r = ones @ _matrix_power_real(m_r, levels) @ start
    copies_s = ones @ _matrix_power_real(m_s, levels) @ start
    return copies_r / (1.0 + rho) + rho / (1.0 + rho) * copies_s


# ----------------------------------------------------------------------
# LSJ
# ----------------------------------------------------------------------

def comp_lsj(k: int, theta_r: float, theta_s: float) -> float:
    """LSJ comparison factor — identical to DCJ's (paper, Table 7)."""
    return comp_dcj(k, theta_r, theta_s)


def repl_lsj(k: int, theta_r: float, theta_s: float, rho: float = 1.0) -> float:
    """LSJ replication factor.

    Each S-tuple is replicated to every submask of its fired-function
    vector: ``E[2^{#fired}] = (1 + p_S)^l`` copies (the binomial closed
    form of Table 7's sum); R-tuples are stored once.
    """
    _check_common(k, theta_r, theta_s)
    if rho <= 0:
        raise ConfigurationError("ρ must be positive")
    levels = levels_of(k)
    lam = theta_s / theta_r
    q = lam / (1.0 + lam)
    p_s = 1.0 - q**lam
    copies_s = (1.0 + p_s) ** levels
    return 1.0 / (1.0 + rho) + rho / (1.0 + rho) * copies_s


# ----------------------------------------------------------------------
# Uniform dispatch
# ----------------------------------------------------------------------

def comparison_factor(
    algorithm: str, k: int, theta_r: float, theta_s: float
) -> float:
    """Dispatch on algorithm name (``"PSJ"``, ``"DCJ"``, ``"LSJ"``)."""
    if algorithm == "PSJ":
        return comp_psj(k, theta_s)
    if algorithm == "DCJ":
        return comp_dcj(k, theta_r, theta_s)
    if algorithm == "LSJ":
        return comp_lsj(k, theta_r, theta_s)
    raise ConfigurationError(f"unknown algorithm {algorithm!r}")


def replication_factor(
    algorithm: str, k: int, theta_r: float, theta_s: float, rho: float = 1.0
) -> float:
    """Dispatch on algorithm name (``"PSJ"``, ``"DCJ"``, ``"LSJ"``)."""
    if algorithm == "PSJ":
        return repl_psj(k, theta_s, rho)
    if algorithm == "DCJ":
        return repl_dcj(k, theta_r, theta_s, rho)
    if algorithm == "LSJ":
        return repl_lsj(k, theta_r, theta_s, rho)
    raise ConfigurationError(f"unknown algorithm {algorithm!r}")


def predict_quantities(
    algorithm: str,
    k: int,
    theta_r: float,
    theta_s: float,
    r_size: int,
    s_size: int,
) -> dict:
    """The analytical quantities behind :meth:`JoinPlan.prediction
    <repro.core.optimizer.JoinPlan.prediction>`.

    Scales the Table 7 factors to absolute counts for a concrete input:
    ``comparisons`` (x = comp·|R|·|S|, expected signature comparisons)
    and ``replicated`` (y = repl·(|R|+|S|), expected replicated
    signatures) — the two inputs of the Section 5 time formula.
    """
    if r_size < 1 or s_size < 1:
        raise ConfigurationError("relation sizes must be >= 1")
    if theta_r <= 0 or theta_s <= 0:
        raise ConfigurationError(
            "cannot predict a join over empty sets (θ must be positive)"
        )
    rho = s_size / r_size
    comp = comparison_factor(algorithm, k, theta_r, theta_s)
    repl = replication_factor(algorithm, k, theta_r, theta_s, rho)
    # float() collapses numpy scalars so the quantities stay JSON-able
    # (drift records are persisted as JSONL).
    return {
        "comparison_factor": float(comp),
        "replication_factor": float(repl),
        "comparisons": float(comp) * r_size * s_size,
        "replicated": float(repl) * (r_size + s_size),
    }
