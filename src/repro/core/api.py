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
from .intersection import intersection_join as overlap_join
from .metrics import JoinMetrics
from .operator import SetContainmentJoin, Testbed, check_join_options
from .optimizer import _partition_count, check_algorithm, resolve_plan
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
]


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
) -> tuple[set[tuple[int, int]], JoinMetrics]:
    """Compute ``{(r.tid, s.tid) : r ⊆ s}``.

    ``algorithm="auto"`` runs the paper's five-step selection procedure;
    naming an algorithm uses it at ``num_partitions`` (default 32, any
    positive integer — DCJ/LSJ fold via the modulo approach when it is
    not a power of two).

    Nothing of ``lhs``/``rhs`` is stored: the operator reads them as held
    (DESIGN.md, "One relation read surface").  Every option is checked
    first, also when a side is empty.

    ``workers``/``backend`` run the joining phase on the
    partition-parallel engine (:mod:`repro.parallel`); results and the
    paper's x/y counts are identical for any worker count.

    ``tracer`` (a :class:`repro.obs.trace.Tracer`) records a span tree
    of the execution — phases, partition pairs, per-shard worker spans —
    without changing results or accounting; see :mod:`repro.obs`.
    """
    return _held_join(
        lhs, rhs, algorithm, num_partitions, signature_bits, model, seed,
        workers, backend, tracer,
    )[1:]


def _held_join(lhs, rhs, algorithm, num_partitions, signature_bits, model,
               seed, workers, backend, tracer):
    """:func:`containment_join` and ANALYZE: every option checked, then
    ``(plan, pairs, metrics)`` of the held relations' join — ``None`` and
    nothing run when a side is empty.  No relation page is written."""
    check_algorithm(algorithm)
    _partition_count(num_partitions)
    check_join_options(signature_bits, workers, backend)
    if not lhs or not rhs:
        return None, set(), JoinMetrics(algorithm=algorithm, r_size=len(lhs),
                                        s_size=len(rhs))
    plan = resolve_plan(
        algorithm, num_partitions, len(lhs), lhs.average_cardinality(),
        len(rhs), rhs.average_cardinality(), model,
    )
    with Testbed() as testbed:
        testbed.relation_r, testbed.relation_s = lhs, rhs
        pairs, metrics = SetContainmentJoin(
            testbed, plan.build_partitioner(seed),
            signature_bits=signature_bits, workers=workers,
            parallel_backend=backend, tracer=tracer,
        ).run()
    return plan, pairs, metrics


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
