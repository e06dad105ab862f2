"""Ablation studies for the design choices the paper motivates.

* ``ablation-alternation`` — the α→(α,β), β→(β,α) operator pattern vs
  α-only / β-only (Section 2.3's replication-minimization heuristic).
* ``ablation-hash-family`` — bit-string vs prime-divisor hash functions
  (Section 3 / Table 3).
* ``ablation-firing`` — hash firing probability sweep around the derived
  optimum q* = λ/(1+λ) (Section 3, "Optimal hash functions").
* ``ablation-portions`` — portioned partition records vs the paper's
  rejected monolithic-record design (Section 5, footnote 6).
* ``ablation-buffer`` — buffer replacement policies (held "identical for
  every algorithm" in the paper; varied here).
* ``ablation-hybrid`` — the future-work cardinality-split hybrid vs plain
  DCJ and PSJ (Section 7).
* ``ablation-components`` — each component of the stack, the paper's and
  the storage/service substrate's, turned off alone against one baseline
  on a file-backed database, ranked by its deterministic deltas.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
import time
from typing import NamedTuple

from ..analysis.simulate import make_partitioner
from ..analysis.timemodel import PAPER_TIME_MODEL
from ..core.dcj import DCJPartitioner
from ..core.hashing import (
    BitstringHashFamily,
    make_family,
    optimal_bitstring_length,
    optimal_no_fire_probability,
    step_comparison_factor,
)
from ..core.hybrid import hybrid_join
from ..core.operator import run_disk_join
from ..core.partitioning import PartitionAssignment
from ..data.workloads import uniform_workload
from ..errors import SetJoinError
from ..obs.ledger import LedgerWindow
from ..obs.registry import get_registry
from .base import ExperimentResult, register

__all__ = [
    "run_alternation",
    "run_hash_family",
    "run_firing",
    "run_portions",
    "run_buffer",
    "run_hybrid",
    "run_components",
]


def _default_workload(seed: int = 9):
    return uniform_workload(
        800, 800, 25, 50, domain_size=50_000, seed=seed, planted_pairs=5
    ).materialize()


@register("ablation-alternation")
def run_alternation(k: int = 64, seed: int = 9) -> ExperimentResult:
    """Operator-pattern ablation: replication with and without alternation."""
    lhs, rhs = _default_workload(seed)
    theta_r, theta_s = 25, 50
    result = ExperimentResult(
        experiment_id="ablation-alternation",
        title=f"DCJ operator patterns (k={k})",
        columns=["pattern", "comparisons", "comp_factor", "replicated",
                 "repl_factor"],
    )
    for pattern in ("alternating", "alpha", "beta"):
        partitioner = DCJPartitioner.for_cardinalities(
            k, theta_r, theta_s, pattern=pattern
        )
        assignment = PartitionAssignment.compute(partitioner, lhs, rhs)
        result.rows.append(
            {
                "pattern": pattern,
                "comparisons": assignment.comparisons,
                "comp_factor": assignment.comparison_factor,
                "replicated": assignment.replicated_signatures,
                "repl_factor": assignment.replication_factor,
            }
        )
    by_pattern = {row["pattern"]: row for row in result.rows}
    result.check("alternating pattern replicates least",
                 by_pattern["alternating"]["replicated"]
                 <= min(by_pattern["alpha"]["replicated"],
                        by_pattern["beta"]["replicated"]))
    result.check("comparison counts are pattern-independent",
                 len({row["comparisons"] for row in result.rows}) == 1)
    result.paper_claims = [
        "The alternating heuristic minimizes replication by always using β "
        "on partitions replicated in the previous step "
        f"[measured repl: alternating {by_pattern['alternating']['repl_factor']:.2f} "
        f"vs α-only {by_pattern['alpha']['repl_factor']:.2f} "
        f"vs β-only {by_pattern['beta']['repl_factor']:.2f}]",
    ]
    return result


@register("ablation-hash-family")
def run_hash_family(k: int = 64, seed: int = 9) -> ExperimentResult:
    """Bit-string vs prime-divisor construction of the hash functions."""
    lhs, rhs = _default_workload(seed)
    theta_r, theta_s = 25, 50
    result = ExperimentResult(
        experiment_id="ablation-hash-family",
        title=f"Hash-function constructions for DCJ (k={k})",
        columns=["family", "comp_factor", "repl_factor"],
    )
    for kind in ("bitstring", "primes"):
        partitioner = DCJPartitioner.for_cardinalities(
            k, theta_r, theta_s, family_kind=kind
        )
        assignment = PartitionAssignment.compute(partitioner, lhs, rhs)
        result.rows.append(
            {
                "family": kind,
                "comp_factor": assignment.comparison_factor,
                "repl_factor": assignment.replication_factor,
            }
        )
    comp_values = [row["comp_factor"] for row in result.rows]
    result.check("bit-string and prime families within 50% of each other",
                 max(comp_values) <= 1.5 * min(comp_values))
    result.paper_claims = [
        "Both the bit-string construction (§3) and disjoint prime sets "
        "(Table 3 / [MGM01]) realize monotone functions with tunable "
        "firing probability; performance should be comparable.",
    ]
    return result


@register("ablation-firing")
def run_firing(k: int = 64, seed: int = 9,
               theta_r: int = 25, theta_s: int = 50) -> ExperimentResult:
    """Sweep the hash firing probability around the derived optimum."""
    lhs, rhs = _default_workload(seed)
    lam = theta_s / theta_r
    q_star = optimal_no_fire_probability(lam)
    levels = k.bit_length() - 1
    result = ExperimentResult(
        experiment_id="ablation-firing",
        title=f"Firing-probability sweep (k={k}, λ={lam:g})",
        columns=["bitstring_b", "q_on_R", "comp_factor_measured",
                 "comp_factor_predicted"],
    )
    for b in (theta_r // 2, theta_r, 2 * theta_r, 3 * theta_r, 6 * theta_r):
        if b < levels:
            continue
        family = BitstringHashFamily(b, num_functions=levels)
        partitioner = DCJPartitioner(family, levels)
        assignment = PartitionAssignment.compute(partitioner, lhs, rhs)
        q = (1.0 - 1.0 / b) ** theta_r
        result.rows.append(
            {
                "bitstring_b": b,
                "q_on_R": q,
                "comp_factor_measured": assignment.comparison_factor,
                "comp_factor_predicted": step_comparison_factor(q, lam) ** levels,
            }
        )
    optimal_b = 1.0 / (1.0 - q_star ** (1.0 / theta_r))
    best_row = min(result.rows, key=lambda row: row["comp_factor_measured"])
    result.check("measured minimum is interior, near the derived optimum q*",
                 abs(best_row["q_on_R"] - q_star) < 0.25)
    result.check("measured factors track the per-step formula within 5%",
                 all(abs(row["comp_factor_measured"]
                         - row["comp_factor_predicted"])
                     <= 0.05 * max(row["comp_factor_predicted"], 1e-9)
                     for row in result.rows))
    result.paper_claims = [
        f"The optimal no-fire probability is q* = λ/(1+λ) = {q_star:.3f}, "
        f"achieved at b ≈ {optimal_b:.0f}; the measured comparison factor "
        "should be minimal near that b and match the per-step formula "
        "1 − q^λ + q^{1+λ}.",
    ]
    return result


@register("ablation-portions")
def run_portions(k: int = 64, seed: int = 9, clock=None) -> ExperimentResult:
    """Portioned partition records vs one monolithic record per partition.

    The workload is sized so monolithic records stay within the B-tree's
    record limit; the read-modify-write on every append still makes the
    partitioning phase measurably slower, which is exactly the degradation
    the paper observed before switching to portions.  At larger partition
    sizes the monolithic layout fails outright (records outgrow a page) —
    see the test suite's ``test_monolithic_overflows``.
    """
    clock = clock if clock is not None else time.perf_counter
    lhs, rhs = uniform_workload(
        150, 150, 10, 20, domain_size=20_000, seed=seed, planted_pairs=3
    ).materialize()
    partitioner_args = ("DCJ", k, 10, 20)
    result = ExperimentResult(
        experiment_id="ablation-portions",
        title=f"Partition record layout (k={k})",
        columns=["layout", "t_partition_s", "t_total_s", "page_writes", "ok"],
    )
    outcomes = {}
    for layout, monolithic in (("portioned", False), ("monolithic", True)):
        partitioner = make_partitioner(*partitioner_args, seed=seed)
        started = clock()
        try:
            pairs, metrics = run_disk_join(
                lhs, rhs, partitioner, monolithic_partitions=monolithic
            )
            row = {
                "layout": layout,
                "t_partition_s": metrics.partitioning.seconds,
                "t_total_s": metrics.total_seconds,
                "page_writes": metrics.total_page_writes,
                "ok": True,
            }
            outcomes[layout] = (pairs, metrics)
        except Exception as error:  # monolithic overflows on large partitions
            row = {
                "layout": layout,
                "t_partition_s": clock() - started,
                "t_total_s": float("nan"),
                "page_writes": 0,
                "ok": f"failed: {type(error).__name__}",
            }
        result.rows.append(row)
    by_layout = {row["layout"]: row for row in result.rows}
    result.check("portioned layout partitions faster than monolithic",
                 by_layout["portioned"]["ok"] is True
                 and by_layout["monolithic"]["ok"] is True
                 and by_layout["portioned"]["t_partition_s"]
                 < by_layout["monolithic"]["t_partition_s"])
    result.paper_claims = [
        "Appending to a single record per partition degrades with partition "
        "size; splitting partitions into equal portions keyed by (portion, "
        "partition index) proved much more efficient (Section 5, fn. 6).",
    ]
    if len(outcomes) == 2:
        result.notes = [
            "Both layouts returned "
            + ("identical" if outcomes["portioned"][0] == outcomes["monolithic"][0]
               else "DIFFERENT")
            + " join results.",
        ]
    return result


@register("ablation-buffer")
def run_buffer(k: int = 32, seed: int = 9,
               buffer_pages: int = 48) -> ExperimentResult:
    """Buffer replacement policy under a tight memory budget."""
    lhs, rhs = _default_workload(seed)
    result = ExperimentResult(
        experiment_id="ablation-buffer",
        title=f"Buffer replacement policies ({buffer_pages} pages)",
        columns=["policy", "t_total_s", "page_reads", "page_writes"],
    )
    for policy in ("lru", "clock", "fifo"):
        partitioner = make_partitioner("DCJ", k, 25, 50, seed=seed)
        __, metrics = run_disk_join(
            lhs, rhs, partitioner,
            buffer_pages=buffer_pages, buffer_policy=policy,
        )
        result.rows.append(
            {
                "policy": policy,
                "t_total_s": metrics.total_seconds,
                "page_reads": metrics.total_page_reads,
                "page_writes": metrics.total_page_writes,
            }
        )
    reads = [row["page_reads"] for row in result.rows]
    result.check("all three policies complete with comparable I/O (≤2x)",
                 max(reads) <= 2 * max(1, min(reads)))
    result.paper_claims = [
        "The paper holds the buffer management policy constant across "
        "algorithms; this ablation varies it to show the operator's I/O "
        "pattern (sequential portion scans) is policy-insensitive.",
    ]
    return result


@register("ablation-options")
def run_options(k: int = 32, seed: int = 9) -> ExperimentResult:
    """The Section 6 implementation options: resident partitions and
    candidate spilling, against the plain operator."""
    lhs, rhs = _default_workload(seed)
    configurations = (
        ("baseline", {}),
        ("resident=k/2", {"resident_partitions": k // 2}),
        ("resident=k", {"resident_partitions": k}),
        ("spill candidates", {"spill_candidates": True}),
    )
    result = ExperimentResult(
        experiment_id="ablation-options",
        title=f"Operator implementation options (k={k})",
        columns=["configuration", "t_total_s", "disk_signatures",
                 "resident_signatures", "page_writes", "results"],
    )
    reference = None
    for label, options in configurations:
        partitioner = make_partitioner("DCJ", k, 25, 50, seed=seed)
        pairs, metrics = run_disk_join(lhs, rhs, partitioner, **options)
        reference = pairs if reference is None else reference
        assert pairs == reference
        result.rows.append(
            {
                "configuration": label,
                "t_total_s": metrics.total_seconds,
                "disk_signatures": metrics.replicated_signatures,
                "resident_signatures": metrics.resident_signatures,
                "page_writes": metrics.total_page_writes,
                "results": metrics.result_size,
            }
        )
    by_config = {row["configuration"]: row for row in result.rows}
    result.check("resident partitions eliminate partition disk signatures",
                 by_config["resident=k"]["disk_signatures"] == 0)
    result.check("all configurations return identical results",
                 len({row["results"] for row in result.rows}) == 1)
    result.paper_claims = [
        "\"Keeping a fixed number of partitions permanently in main memory "
        "improves the execution time when much memory is available\" and "
        "\"separating the joining phase and the verification phase by "
        "first writing out potentially joining tuple identifiers ... may "
        "improve performance\" (Section 6).",
    ]
    result.notes = [
        "All configurations return identical join results.",
        "Resident partitions trade partition I/O for memory.  Candidate "
        "spilling routes candidates through a temporary B-tree; with a "
        "large buffer pool the tree stays cached (no extra page writes) "
        "and only the bookkeeping overhead shows.",
    ]
    return result


@register("ablation-modulo")
def run_modulo(seed: int = 9) -> ExperimentResult:
    """Non-power-of-two k via modulo folding (Section 5's closing remark)."""
    from ..core.modulo import dcj_with_any_k

    lhs, rhs = _default_workload(seed)
    result = ExperimentResult(
        experiment_id="ablation-modulo",
        title="DCJ at non-power-of-two partition counts (modulo folding)",
        columns=["k", "comparisons", "comp_factor", "replicated",
                 "repl_factor"],
    )
    for k in (16, 24, 32, 48, 64):
        partitioner = dcj_with_any_k(k, 25, 50)
        assignment = PartitionAssignment.compute(partitioner, lhs, rhs)
        result.rows.append(
            {
                "k": k,
                "comparisons": assignment.comparisons,
                "comp_factor": assignment.comparison_factor,
                "replicated": assignment.replicated_signatures,
                "repl_factor": assignment.replication_factor,
            }
        )
    result.paper_claims = [
        "\"The limitation in choosing k can be addressed using the modulo "
        "approach suggested in [HM97]\"; execution cost at k = 48 should "
        "land between the k = 32 and k = 64 power-of-two points.",
    ]
    by_k = {row["k"]: row for row in result.rows}
    result.check("k=48 comparison factor between k=64 and k=32",
                 by_k[64]["comp_factor"] <= by_k[48]["comp_factor"]
                 <= by_k[32]["comp_factor"])
    between = (
        by_k[64]["comp_factor"]
        <= by_k[48]["comp_factor"]
        <= by_k[32]["comp_factor"]
    )
    result.notes = [f"comp_factor(48) between comp_factor(64) and comp_factor(32): {between}"]
    return result


@register("ablation-skew")
def run_skew(k: int = 32, seed: int = 9) -> ExperimentResult:
    """Element skew vs PSJ's ``e mod k`` routing: two distinct failure modes.

    The analytical model assumes uniformly drawn elements (Section 3,
    assumption 1).  Two different violations behave very differently:

    * **arithmetic structure** — element values sharing a stride (here:
      multiples of 8) hit only ``k/stride`` partitions under raw modulo.
      Pre-hashing the values (footnote 1's "mapped onto integers using
      hashing") restores balance completely.
    * **frequency skew** — self-similar (80/20) elements: a few *hot*
      elements occur in most sets, so whichever partition owns a hot
      element receives a copy of nearly every S-tuple.  Hashing merely
      relocates the hot partition; it cannot fix frequency skew — a
      structural weakness of element-value partitioning that DCJ's
      whole-set hash functions do not share.
    """
    import random as random_module

    from ..core.psj import PSJPartitioner
    from ..core.sets import Relation
    from ..data.workloads import accuracy_workload

    result = ExperimentResult(
        experiment_id="ablation-skew",
        title=f"Element skew and PSJ partition balance (k={k})",
        columns=["elements", "router", "comp_factor", "max/mean partition"],
    )

    def strided_relations():
        rng = random_module.Random(seed)
        def build(size, theta, name):
            return Relation(
                ((tid, [8 * value for value in rng.sample(range(5_000), theta)])
                 for tid in range(size)),
                name,
            )
        return build(600, 20, "R"), build(600, 40, "S")

    workloads = {
        "uniform": accuracy_workload("uniform", "constant", size=600,
                                     theta_r=20, theta_s=40,
                                     seed=seed).materialize(),
        "strided (×8)": strided_relations(),
        "selfsimilar": accuracy_workload("selfsimilar", "constant", size=600,
                                         theta_r=20, theta_s=40,
                                         seed=seed).materialize(),
    }
    for element_kind, (lhs, rhs) in workloads.items():
        for label, hash_elements in (("e mod k", False), ("hash(e) mod k", True)):
            partitioner = PSJPartitioner(k, seed=seed,
                                         hash_elements=hash_elements)
            assignment = PartitionAssignment.compute(partitioner, lhs, rhs)
            sizes = [len(part) for part in assignment.s_partitions]
            mean_size = sum(sizes) / len(sizes) if sizes else 0.0
            imbalance = max(sizes) / mean_size if mean_size else 0.0
            result.rows.append(
                {
                    "elements": element_kind,
                    "router": label,
                    "comp_factor": assignment.comparison_factor,
                    "max/mean partition": imbalance,
                }
            )
    by_key = {(row["elements"], row["router"]): row for row in result.rows}
    result.check(
        "arithmetic stride cripples raw modulo (max/mean ≥ 3)",
        by_key[("strided (×8)", "e mod k")]["max/mean partition"] >= 3.0,
    )
    result.check(
        "hashing fixes arithmetic structure",
        by_key[("strided (×8)", "hash(e) mod k")]["max/mean partition"] < 1.5,
    )
    result.check(
        "frequency skew imbalances partitions regardless of router "
        "(worse than the uniform baseline under both)",
        by_key[("selfsimilar", "e mod k")]["max/mean partition"]
        > by_key[("uniform", "e mod k")]["max/mean partition"]
        and by_key[("selfsimilar", "hash(e) mod k")]["max/mean partition"]
        > by_key[("uniform", "hash(e) mod k")]["max/mean partition"],
    )
    result.paper_claims = [
        "Assumption 1 (Section 3): elements are uniform; \"non-integer "
        "domains can be mapped onto integers using hashing\" (footnote 1).",
    ]
    result.notes = [
        "Reproduction finding: hashing repairs *value-structure* skew but "
        "not *frequency* skew — hot elements drag most S-tuples into one "
        "partition wherever it lands.  Element-value partitioning (PSJ) "
        "is structurally exposed to hot elements; DCJ's monotone set-level "
        "hash functions are not.",
    ]
    return result


@register("ablation-hybrid")
def run_hybrid(seed: int = 9) -> ExperimentResult:
    """The future-work hybrid vs plain DCJ and PSJ on a mixed workload."""
    from ..core.sets import Relation

    small_r, small_s = uniform_workload(
        400, 400, 8, 12, domain_size=50_000, seed=seed, planted_pairs=3
    ).materialize()
    big_r, big_s = uniform_workload(
        400, 400, 60, 120, domain_size=50_000, seed=seed + 1, planted_pairs=3
    ).materialize()
    lhs = Relation.from_sets(
        (row.elements for row in [*small_r, *big_r]), name="R_mixed")
    rhs = Relation.from_sets(
        (row.elements for row in [*small_s, *big_s]), name="S_mixed")

    result = ExperimentResult(
        experiment_id="ablation-hybrid",
        title="Cardinality-split hybrid vs plain DCJ / PSJ (mixed workload)",
        columns=["algorithm", "comparisons", "replicated", "t_total_s", "results"],
    )
    reference = None
    for algorithm in ("DCJ", "PSJ"):
        partitioner = make_partitioner(algorithm, 64,
                                       lhs.average_cardinality(),
                                       rhs.average_cardinality(), seed=seed)
        pairs, metrics = run_disk_join(lhs, rhs, partitioner)
        reference = pairs if reference is None else reference
        result.rows.append(
            {
                "algorithm": algorithm,
                "comparisons": metrics.signature_comparisons,
                "replicated": metrics.replicated_signatures,
                "t_total_s": metrics.total_seconds,
                "results": metrics.result_size,
            }
        )
    outcome = hybrid_join(lhs, rhs, PAPER_TIME_MODEL, seed=seed)
    result.rows.append(
        {
            "algorithm": f"Hybrid(τ={outcome.tau})",
            "comparisons": outcome.total_comparisons,
            "replicated": outcome.total_replicated,
            "t_total_s": outcome.total_seconds,
            "results": len(outcome.result),
        }
    )
    if reference is not None:
        result.check("hybrid output matches the plain algorithms",
                     outcome.result == reference)
    result.paper_claims = [
        "Section 7 (future work): a hybrid combining the strengths of PSJ "
        "(small sets) and DCJ (large sets).  The reproduction's hybrid "
        "splits by cardinality and plans each quadrant with the analytical "
        "optimizer.",
    ]
    if reference is not None:
        result.notes = [
            "Hybrid result matches plain algorithms: "
            + str(outcome.result == reference),
            "Quadrant plans: "
            + ", ".join(
                f"{label}→{plan.algorithm}(k={plan.k})"
                for label, plan, __ in outcome.quadrants
            ),
        ]
    return result


# ---------------------------------------------------------------------------
# ablation-components: the whole stack, one component off at a time.
# ---------------------------------------------------------------------------

#: Turning the component off must keep the answer *and* the paper's x/y.
ANSWER_EXACT = "answer-exact"
#: The component changes the physical plan, so x/y may move (that is its
#: importance); the answer is still unique, so the pairs may not.
ANSWER_AFFECTING = "answer-affecting"

#: The configuration every ``ablation-components`` row deviates from in
#: exactly one component.
BASELINE_KNOBS = {
    # storage
    "durable": True,            # WAL-wrapped disk manager
    "verify_checksums": True,   # CRC check on every page read
    "buffer_pages": 128,        # buffer-pool capacity (frames)
    "buffer_policy": "lru",     # replacement policy
    # partitioning (the paper's knobs)
    "family_kind": "bitstring", # monotone hash-family construction
    "firing_scale": 1.0,        # multiplier on the optimal bit-string length b
    "pattern": "alternating",   # α/β operator alternation
    # service
    "plan_cache": True,         # reuse plans across repeat executions
    # engine
    "workers": 2,               # partition-parallel workers
    "backend": "thread",        # parallel backend
}


class Component(NamedTuple):
    """One ablatable design choice: each variant overrides some knobs."""

    name: str
    layer: str
    invariance: str
    variants: dict


#: Name-sorted, which is also the run order.  EXPERIMENTS.md says what
#: each component is.
COMPONENTS = (
    Component("alternation", "core", ANSWER_AFFECTING,
              {"alpha-only": {"pattern": "alpha"},
               "beta-only": {"pattern": "beta"}}),
    Component("buffer-policy", "storage", ANSWER_EXACT,
              {"clock": {"buffer_policy": "clock"},
               "fifo": {"buffer_policy": "fifo"}}),
    Component("buffer-size", "storage", ANSWER_EXACT,
              {"tight": {"buffer_pages": 16}}),
    Component("checksums", "storage", ANSWER_EXACT,
              {"off": {"verify_checksums": False}}),
    Component("firing-probability", "core", ANSWER_AFFECTING,
              {"4x-b": {"firing_scale": 4.0},
               "quarter-b": {"firing_scale": 0.25}}),
    Component("hash-family", "core", ANSWER_AFFECTING,
              {"primes": {"family_kind": "primes"}}),
    Component("parallel-backend", "engine", ANSWER_EXACT,
              {"serial": {"workers": 1, "backend": "serial"}}),
    Component("plan-cache", "service", ANSWER_EXACT,
              {"off": {"plan_cache": False}}),
    Component("wal", "storage", ANSWER_EXACT,
              {"off": {"durable": False}}),
)

#: Executions of each workload per configuration; the second one is what
#: makes the plan cache observable.
REPEATS = 2

#: Partition count for the forced-DCJ workload (levels = log2 k = 4).
DCJ_FORCED_K = 16

#: The deterministic axes a variant is diffed on, in column order.
_AXES = ("x", "y", "pages", "wal_bytes", "plan_pages")


def configurations():
    """``(component, variant, knobs)`` for the baseline, then for every
    variant of every component in run order."""
    yield None, None, dict(BASELINE_KNOBS)
    for component in COMPONENTS:
        for variant, overrides in sorted(component.variants.items()):
            yield component, variant, dict(BASELINE_KNOBS, **overrides)


def _pairs_digest(pairs) -> str:
    body = ";".join(f"{r},{s}" for r, s in sorted(pairs))
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def _forced_partitioner(knobs: dict, theta_r: float, theta_s: float):
    """The forced-DCJ partitioner, built straight from the knobs."""
    levels = int(math.log2(DCJ_FORCED_K))
    if knobs["family_kind"] == "bitstring":
        optimal = optimal_bitstring_length(theta_r, theta_s)
        length = max(levels, round(optimal * knobs["firing_scale"]))
        family = BitstringHashFamily(length, num_functions=levels)
    else:
        # firing_scale only detunes the bit-string construction; no
        # configuration combines the two knobs.
        family = make_family(knobs["family_kind"], levels, theta_r, theta_s)
    return DCJPartitioner(family, levels, pattern=knobs["pattern"])


def _run_suite(knobs: dict, scale: float, seed: int) -> dict:
    """Run the two-workload suite on a throwaway file database built from
    ``knobs``; returns x, y, the plan-phase pages and the pairs digest.

    ``auto_mixed`` lets the optimizer plan (through a real plan cache
    when ``plan_cache`` is on); ``dcj_forced`` runs DCJ at k=16 with the
    partitioning knobs applied directly, so their deltas are free of
    optimizer choices.  Each workload runs :data:`REPEATS` times and must
    give the same pairs every time.
    """
    from ..database import SetJoinDatabase
    from ..service.core import PlanCache

    theta_r, theta_s = 4, 24
    lhs, rhs = uniform_workload(
        max(int(240 * scale), 20), max(int(360 * scale), 30),
        theta_r, theta_s, domain_size=150, seed=seed,
    ).materialize()
    plan_cache = PlanCache(8) if knobs["plan_cache"] else None
    outcome = {"x": 0, "y": 0, "plan_pages": 0}
    digests = []

    with tempfile.TemporaryDirectory(prefix="setjoins-ablate-") as tmp:
        with SetJoinDatabase.open(
            os.path.join(tmp, "ablate.db"),
            buffer_pages=knobs["buffer_pages"],
            buffer_policy=knobs["buffer_policy"],
            durable=knobs["durable"],
            verify_checksums=knobs["verify_checksums"],
        ) as db:
            db.create_relation("ablate_r", lhs)
            db.create_relation("ablate_s", rhs)

            def plan_auto():
                # Statistics scans mostly hit the pool (the load just
                # wrote those pages), so a plan costs pool accesses.
                key = ("ablate_r", "ablate_s")
                if plan_cache is not None:
                    cached = plan_cache.lookup(key)
                    if cached is not None:
                        return cached
                else:
                    # Off reuses nothing planned: nor the statistics the
                    # database remembers.
                    db._statistics_memo.clear()
                before = db.pool.stats.hits + db.pool.stats.misses
                plan = db.plan("ablate_r", "ablate_s")
                outcome["plan_pages"] += (
                    db.pool.stats.hits + db.pool.stats.misses - before)
                if plan_cache is not None:
                    plan_cache.store(key, plan)
                return plan

            for name, partitioner_for in (
                ("auto_mixed",
                 lambda: plan_auto().build_partitioner(seed=seed)),
                ("dcj_forced",
                 lambda: _forced_partitioner(knobs, theta_r, theta_s)),
            ):
                seen = None
                for __ in range(REPEATS):
                    pairs, metrics = db.join(
                        "ablate_r", "ablate_s",
                        partitioner=partitioner_for(),
                        workers=knobs["workers"], backend=knobs["backend"],
                        seed=seed,
                    )
                    digest = _pairs_digest(pairs)
                    if seen is not None and digest != seen:
                        raise SetJoinError(
                            f"ablation workload {name!r} is nondeterministic "
                            f"across repeats ({digest} != {seen})"
                        )
                    seen = digest
                # x/y of the last repeat: every repeat runs the same plan.
                outcome["x"] += metrics.signature_comparisons
                outcome["y"] += metrics.replicated_signatures
                digests.append(digest)

    outcome["pairs_digest"] = hashlib.sha256(
        ":".join(digests).encode()).hexdigest()[:16]
    return outcome


def _measure(knobs: dict, scale: float, seed: int) -> dict:
    """One configuration's row values, billed through the same
    :class:`~repro.obs.ledger.LedgerWindow` a served query is."""
    window = LedgerWindow(get_registry())
    outcome = _run_suite(knobs, scale, seed)
    bill = window.close()
    return {
        "x": outcome["x"],
        "y": outcome["y"],
        "pages": bill.resources["pages_read"] + bill.resources["pages_written"],
        "wal_bytes": bill.resources["wal_bytes"],
        "plan_pages": outcome["plan_pages"],
        "pairs_digest": outcome["pairs_digest"],
        "t_total_s": bill.wall_seconds,
    }


@register("ablation-components")
def run_components(scale: float = 0.5, seed: int = 11) -> ExperimentResult:
    """Each component off alone, diffed against the baseline."""
    result = ExperimentResult(
        experiment_id="ablation-components",
        title=f"Component ablations, one off at a time (scale {scale:g}, "
        f"seed {seed})",
        columns=["rank", "component", "variant", "layer", "invariance",
                 *_AXES, *(f"d_{axis}" for axis in _AXES),
                 "importance_det", "answer_ok", "pairs_digest", "t_total_s"],
    )
    base = None
    variants = []
    for component, variant, knobs in configurations():
        row = _measure(knobs, scale, seed)
        if component is None:
            base = dict(row, rank=0, component="baseline", variant="-",
                        layer="-", invariance="-", importance_det=0.0,
                        answer_ok="yes",
                        **{f"d_{axis}": 0.0 for axis in _AXES})
            continue
        deltas = {f"d_{axis}": round((row[axis] - base[axis])
                                     / max(base[axis], 1e-12), 4)
                  for axis in _AXES}
        answer_ok = row["pairs_digest"] == base["pairs_digest"] and (
            component.invariance == ANSWER_AFFECTING
            or (row["x"], row["y"]) == (base["x"], base["y"]))
        variants.append(dict(
            row, **deltas, component=component.name, variant=variant,
            layer=component.layer, invariance=component.invariance,
            importance_det=max(abs(delta) for delta in deltas.values()),
            answer_ok="yes" if answer_ok else "NO",
        ))

    # Components rank by their max-impact variant, ties by name.
    impact = {}
    for row in variants:
        impact[row["component"]] = max(impact.get(row["component"], 0.0),
                                       row["importance_det"])
    ranked = sorted(impact, key=lambda name: (-impact[name], name))
    for row in variants:
        row["rank"] = ranked.index(row["component"]) + 1
    variants.sort(key=lambda row: (row["rank"], -row["importance_det"],
                                   row["variant"]))
    result.rows = [base, *variants]

    by_run = {f"{row['component']}:{row['variant']}": row for row in variants}
    result.check("every variant keeps the baseline pairs digest",
                 all(row["pairs_digest"] == base["pairs_digest"]
                     for row in variants))
    result.check("every answer-exact variant keeps x and y",
                 all((row["x"], row["y"]) == (base["x"], base["y"])
                     for row in variants
                     if row["invariance"] == ANSWER_EXACT))
    result.check("wal:off logs no WAL bytes",
                 by_run["wal:off"]["wal_bytes"] == 0)
    result.check("plan-cache:off raises plan pages",
                 by_run["plan-cache:off"]["plan_pages"] > base["plan_pages"])
    result.check("buffer-size:tight raises pages",
                 by_run["buffer-size:tight"]["pages"] > base["pages"])
    result.check("both firing-probability detunings raise x",
                 min(by_run["firing-probability:4x-b"]["x"],
                     by_run["firing-probability:quarter-b"]["x"])
                 > base["x"])
    result.check("α-only and β-only both raise y (alternation replicates "
                 "least)",
                 min(by_run["alternation:alpha-only"]["y"],
                     by_run["alternation:beta-only"]["y"]) > base["y"])
    result.paper_claims = [
        "The design choices the paper argues for — α/β alternation "
        "(§2.3), the optimal firing probability and the hash-family "
        "construction (§3) — each cost measurable x or y when turned "
        "off; the storage and service substrate (WAL, checksums, buffer "
        "pool, plan cache, parallel backend) must never change the "
        "answer.",
    ]
    result.notes = [
        "Deltas are relative to the baseline row; importance_det is the "
        "largest absolute one.  Pages are pages read + written, billed "
        "through a LedgerWindow; plan_pages are the optimizer's buffer-"
        "pool accesses.  t_total_s is wall time and is not checked.",
    ]
    return result
