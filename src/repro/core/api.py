"""High-level one-call joins.

Convenience entry points for downstream users who just want an answer:

* :func:`containment_join` — ``{(r, s) : r ⊆ s}`` with automatic
  algorithm/partition-count selection (the paper's optimizer) unless an
  algorithm is forced.
* :func:`superset_join` — ``{(r, s) : r ⊇ s}``, computed by swapping the
  sides of a containment join.
* :func:`set_equality_join` — ``{(r, s) : r = s}``, the intersection of
  both directions, answered directly via signature-keyed hashing.
* :func:`overlap_join` — re-export of the intersection join.

All return ``(pairs, metrics)`` like the lower-level operators.
"""

from __future__ import annotations

import time
from collections import defaultdict

from ..analysis.timemodel import PAPER_TIME_MODEL, TimeModel
from ..errors import ConfigurationError
from .intersection import intersection_join as overlap_join
from .metrics import JoinMetrics
from .modulo import make_partitioner
from .operator import run_disk_join
from .optimizer import choose_plan
from .sets import Relation
from .signatures import DEFAULT_SIGNATURE_BITS, signature_of

__all__ = [
    "containment_join",
    "self_containment_join",
    "superset_join",
    "set_equality_join",
    "overlap_join",
    "explain_containment_join",
    "analyze_containment_join",
    "resolve_configuration",
]

_ALGORITHMS = ("auto", "DCJ", "PSJ", "LSJ")


def resolve_configuration(lhs, rhs, algorithm, num_partitions, model, seed,
                          drift_history=None):
    """``(algorithm, k, θ_R, θ_S, partitioner)`` of a containment join of two
    in-memory relations: the optimizer's plan for ``"auto"``, else the named
    algorithm at ``num_partitions`` (default 32).  What runs and what
    EXPLAIN shows are this one answer."""
    if algorithm == "auto":
        plan = choose_plan(lhs, rhs, model, drift_history=drift_history)
        return (plan.algorithm, plan.k, plan.theta_r, plan.theta_s,
                plan.build_partitioner(seed=seed))
    k = num_partitions or 32
    theta_r = max(lhs.average_cardinality(), 1.0)
    theta_s = max(rhs.average_cardinality(), 1.0)
    partitioner = make_partitioner(algorithm, k, theta_r, theta_s, seed)
    return algorithm, k, theta_r, theta_s, partitioner


def containment_join(
    lhs: Relation,
    rhs: Relation,
    algorithm: str = "auto",
    num_partitions: int | None = None,
    signature_bits: int = DEFAULT_SIGNATURE_BITS,
    model: TimeModel = PAPER_TIME_MODEL,
    seed: int = 0,
    workers: int = 1,
    backend: str = "serial",
    tracer=None,
    drift_history=None,
) -> tuple[set[tuple[int, int]], JoinMetrics]:
    """Compute ``{(r.tid, s.tid) : r ⊆ s}``.

    ``algorithm="auto"`` runs the paper's five-step selection procedure;
    naming an algorithm uses it at ``num_partitions`` (default 32, any
    value — DCJ/LSJ fold via the modulo approach when it is not a power
    of two).

    ``workers``/``backend`` run the joining phase on the
    partition-parallel engine (:mod:`repro.parallel`); results and the
    paper's x/y counts are identical for any worker count.

    ``tracer`` (a :class:`repro.obs.trace.Tracer`) records a span tree
    of the execution — phases, partition pairs, per-shard worker spans —
    without changing results or accounting; see :mod:`repro.obs`.

    ``drift_history`` (drift records, a JSONL history path, or a
    precomputed ``{algorithm: factor}`` mapping) makes the ``"auto"``
    selection drift-aware: each candidate algorithm's predicted time is
    weighted by its recent observed wall-time drift before DCJ and PSJ
    are compared (:mod:`repro.obs.adaptive`).  Once an (algorithm, k)
    pair is chosen, execution — results and x/y accounting — is
    bit-identical with or without the history.
    """
    if algorithm not in _ALGORITHMS:
        raise ConfigurationError(
            f"algorithm must be one of {_ALGORITHMS}, got {algorithm!r}"
        )
    if not lhs or not rhs:
        return set(), JoinMetrics(algorithm=algorithm, r_size=len(lhs),
                                  s_size=len(rhs))
    *__, partitioner = resolve_configuration(
        lhs, rhs, algorithm, num_partitions, model, seed, drift_history
    )
    return run_disk_join(
        lhs, rhs, partitioner, signature_bits=signature_bits,
        workers=workers, backend=backend, tracer=tracer,
    )


def explain_containment_join(lhs: Relation, rhs: Relation, **kwargs):
    """EXPLAIN a containment join: the predicted plan, nothing executed.

    Delegates to :func:`repro.obs.explain.explain_join` (imported lazily;
    the inspector depends on this package).  Returns an
    :class:`~repro.obs.explain.ExplainReport`.
    """
    from ..obs.explain import explain_join

    return explain_join(lhs, rhs, **kwargs)


def analyze_containment_join(lhs: Relation, rhs: Relation, **kwargs):
    """EXPLAIN ANALYZE a containment join: run it (results bit-identical
    to :func:`containment_join`), annotate the plan with observations.

    Delegates to :func:`repro.obs.explain.analyze_join`; returns an
    :class:`~repro.obs.explain.AnalyzeResult` carrying the report, the
    result pairs, the metrics, and the recorded drift.
    """
    from ..obs.explain import analyze_join

    return analyze_join(lhs, rhs, **kwargs)


def superset_join(
    lhs: Relation,
    rhs: Relation,
    algorithm: str = "auto",
    num_partitions: int | None = None,
    signature_bits: int = DEFAULT_SIGNATURE_BITS,
    model: TimeModel = PAPER_TIME_MODEL,
    seed: int = 0,
    workers: int = 1,
    backend: str = "serial",
    tracer=None,
) -> tuple[set[tuple[int, int]], JoinMetrics]:
    """Compute ``{(l.tid, r.tid) : l ⊇ r}`` — containment with the sides
    swapped and the result pairs swapped back."""
    pairs, metrics = containment_join(
        rhs, lhs, algorithm, num_partitions, signature_bits, model, seed,
        workers=workers, backend=backend, tracer=tracer,
    )
    return {(l_tid, r_tid) for r_tid, l_tid in pairs}, metrics


def self_containment_join(
    relation: Relation,
    algorithm: str = "auto",
    num_partitions: int | None = None,
    strict: bool = True,
    signature_bits: int = DEFAULT_SIGNATURE_BITS,
    model: TimeModel = PAPER_TIME_MODEL,
    seed: int = 0,
    workers: int = 1,
    backend: str = "serial",
    tracer=None,
) -> tuple[set[tuple[int, int]], JoinMetrics]:
    """Containment pairs within one relation: ``{(a, b) : a ⊆ b, a ≠ b}``.

    The "folding flat relations into a nested representation" use case
    from the paper's introduction.  ``strict=True`` (default) drops the
    trivial reflexive pairs; set it to ``False`` to keep them.
    """
    pairs, metrics = containment_join(
        relation, relation, algorithm, num_partitions,
        signature_bits, model, seed,
        workers=workers, backend=backend, tracer=tracer,
    )
    if strict:
        pairs = {(a, b) for a, b in pairs if a != b}
        metrics.result_size = len(pairs)
    return pairs, metrics


def set_equality_join(
    lhs: Relation,
    rhs: Relation,
    signature_bits: int = DEFAULT_SIGNATURE_BITS,
) -> tuple[set[tuple[int, int]], JoinMetrics]:
    """Compute ``{(r.tid, s.tid) : r = s}`` by hashing on signatures.

    Equal sets have equal signatures, so a signature-keyed hash join with
    exact verification does it in linear time — the degenerate case where
    both ⊆ and ⊇ hold.
    """
    metrics = JoinMetrics(algorithm="EqualityHash", num_partitions=1,
                          r_size=len(lhs), s_size=len(rhs),
                          signature_bits=signature_bits)
    started = time.perf_counter()
    buckets: dict[int, list] = defaultdict(list)
    for r in lhs:
        buckets[signature_of(r.elements, signature_bits)].append(r)
    result: set[tuple[int, int]] = set()
    for s in rhs:
        for r in buckets.get(signature_of(s.elements, signature_bits), ()):
            metrics.signature_comparisons += 1
            metrics.candidates += 1
            metrics.set_comparisons += 1
            if r.elements == s.elements:
                result.add((r.tid, s.tid))
            else:
                metrics.false_positives += 1
    metrics.joining.seconds = time.perf_counter() - started
    metrics.result_size = len(result)
    return result, metrics
