"""The ablation bench suite: one knob dict in, one outcome record out.

Every matrix run executes the same two-workload recipe (``canonical-v1``,
mirroring the shapes in ``benchmarks/baseline.py``) against a throwaway
file-backed :class:`~repro.database.SetJoinDatabase` assembled from the
run's knobs:

* ``auto_mixed`` — the optimizer picks the plan from sampled statistics
  with the paper's time model, through a real
  :class:`~repro.service.core.PlanCache` when the ``plan-cache`` knob is
  on.
* ``dcj_forced`` — DCJ at k=16 with the partitioner built directly from
  the partitioning knobs (hash-family construction, firing-probability
  scale on the optimal bit-string length b, α/β alternation pattern), so
  those components' deltas are isolated from optimizer choices.

Each workload repeats ``repeats`` times (that is what makes the plan
cache observable) and must produce bit-identical pairs on every repeat —
any divergence raises instead of silently polluting the importance
report.  The outcome carries the paper's x/y totals, per-workload pairs
digests, the plan-phase page I/O measured off ``disk.stats`` (planning
samples statistics *outside* the metrics registry, so the executor's
registry delta would miss it), and the
:func:`~repro.obs.ledger.query_fingerprint` workload shapes used to tag
runs for slicing.

Everything registry-visible the suite does — relation loads (WAL
traffic), joins (``record_join``), plan-cache hits/misses — happens
inside the executor's snapshot window, which is what makes the workload
ledger's :meth:`~repro.obs.ledger.WorkloadLedger.reconcile` hold exactly
over a whole matrix.
"""

from __future__ import annotations

import hashlib
import os
import tempfile

from ..errors import SetJoinError
from ..obs.ledger import query_fingerprint

__all__ = ["DCJ_FORCED_K", "suite_fingerprint", "run_bench"]

#: Partition count for the forced-DCJ workload (levels = log2 k = 4).
DCJ_FORCED_K = 16


def _workload_shape(scale: float, seed: int) -> dict:
    """The canonical input shape (same constants as benchmarks/baseline)."""
    return {
        "r_size": max(int(240 * scale), 20),
        "s_size": max(int(360 * scale), 30),
        "theta_r": 4,
        "theta_s": 24,
        "domain_size": 150,
        "seed": seed,
    }


def suite_fingerprint(scale: float, seed: int, suite: str = "canonical-v1"):
    """The workload-shape fingerprint every run at this scale/seed shares.

    Deliberately knob-free: runs are tagged by what work they did, not
    how the system was configured, so importance reports slice by
    workload shape exactly like ``GET /debug/workload`` does.
    """
    shape = _workload_shape(scale, seed)
    return query_fingerprint("ablation", dict(shape, suite=suite))


def _pairs_digest(pairs) -> str:
    body = ";".join(f"{r},{s}" for r, s in sorted(pairs))
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def _forced_partitioner(knobs: dict, theta_r: float, theta_s: float):
    """Build the forced-DCJ partitioner straight from the knobs."""
    import math

    from ..core.dcj import DCJPartitioner
    from ..core.hashing import (
        BitstringHashFamily,
        make_family,
        optimal_bitstring_length,
    )

    levels = int(math.log2(DCJ_FORCED_K))
    if knobs["family_kind"] == "bitstring":
        optimal = optimal_bitstring_length(theta_r, theta_s)
        length = max(levels, round(optimal * knobs["firing_scale"]))
        family = BitstringHashFamily(length, num_functions=levels)
    else:
        # firing_scale only detunes the bit-string construction; the
        # matrix never combines the two knobs (one-component-off).
        family = make_family(knobs["family_kind"], levels, theta_r, theta_s)
    return DCJPartitioner(family, levels, pattern=knobs["pattern"])


def run_bench(knobs: dict, scale: float = 1.0, seed: int = 11,
              repeats: int = 2) -> dict:
    """Execute the canonical suite under one knob dict; returns the
    outcome record (deterministic fields only — the executor owns
    timing and registry accounting)."""
    from ..data.workloads import uniform_workload
    from ..database import SetJoinDatabase
    from ..service.core import PlanCache

    shape = _workload_shape(scale, seed)
    lhs, rhs = uniform_workload(**shape).materialize()
    plan_cache = PlanCache(8) if knobs["plan_cache"] else None

    extras = {"plans": 0, "plan_pages": 0}
    workloads: dict = {}

    with tempfile.TemporaryDirectory(prefix="setjoins-ablate-") as tmp:
        path = os.path.join(tmp, "ablate.db")
        with SetJoinDatabase.open(
            path,
            buffer_pages=knobs["buffer_pages"],
            buffer_policy=knobs["buffer_policy"],
            durable=knobs["durable"],
            verify_checksums=knobs["verify_checksums"],
        ) as db:
            db.create_relation("ablate_r", lhs)
            db.create_relation("ablate_s", rhs)

            def plan_auto():
                """One optimizer pass, page traffic billed to ``extras``.

                Statistics scans are usually buffer-pool hits (the load
                just wrote those pages), so plan cost is counted as pool
                accesses (hits+misses), not physical disk reads.
                """
                key = ("ablate_r", "ablate_s")
                if plan_cache is not None:
                    cached = plan_cache.lookup(key)
                    if cached is not None:
                        return cached
                before = db.pool.stats.hits + db.pool.stats.misses
                plan = db.plan("ablate_r", "ablate_s")
                extras["plans"] += 1
                extras["plan_pages"] += (
                    db.pool.stats.hits + db.pool.stats.misses - before
                )
                if plan_cache is not None:
                    plan_cache.store(key, plan)
                return plan

            def execute(name, partitioner_for_repeat):
                record = None
                for __ in range(repeats):
                    pairs, metrics = db.join(
                        "ablate_r", "ablate_s",
                        partitioner=partitioner_for_repeat(),
                        workers=knobs["workers"],
                        backend=knobs["backend"],
                        seed=seed,
                    )
                    digest = _pairs_digest(pairs)
                    if record is not None and digest != record["pairs_digest"]:
                        raise SetJoinError(
                            f"ablation workload {name!r} is nondeterministic "
                            f"across repeats ({digest} != "
                            f"{record['pairs_digest']})"
                        )
                    record = {
                        "algorithm": metrics.algorithm,
                        "k": metrics.num_partitions,
                        "x": metrics.signature_comparisons,
                        "y": metrics.replicated_signatures,
                        "results": len(pairs),
                        "pairs_digest": digest,
                    }
                fp = query_fingerprint(
                    "ablation", dict(shape, suite=f"canonical-v1/{name}"))
                record["fingerprint"] = fp.key
                workloads[name] = record

            execute("auto_mixed",
                    lambda: plan_auto().build_partitioner(seed=seed))
            execute("dcj_forced",
                    lambda: _forced_partitioner(
                        knobs, shape["theta_r"], shape["theta_s"]))

    combined = hashlib.sha256(
        ":".join(workloads[name]["pairs_digest"]
                 for name in sorted(workloads)).encode()
    ).hexdigest()[:16]
    suite_fp = suite_fingerprint(scale, seed)
    return {
        "suite": "canonical-v1",
        "repeats": repeats,
        "workloads": workloads,
        "x": sum(w["x"] for w in workloads.values()),
        "y": sum(w["y"] for w in workloads.values()),
        "results": sum(w["results"] for w in workloads.values()),
        "pairs_digest": combined,
        "extras": dict(extras),
        "fingerprint": suite_fp.key,
        "label": suite_fp.label,
    }
