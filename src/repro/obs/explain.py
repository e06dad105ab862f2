"""EXPLAIN/ANALYZE plan inspector.

The paper's analysis predicts a join before it runs — comparison factor,
replication factor, the calibrated time model — and the tracer measures
it afterwards.  This module puts both on one tree so a user can ask
"what did the optimizer expect, and how far off was it?":

* **EXPLAIN** (:func:`explain_join`) renders the plan the optimizer (or
  a forced configuration) would execute, annotated with the analytical
  predictions: x/y from the Table 7 factors, page I/O for the partition
  store, and the Section 5 time formula split into its CPU and
  replication terms.  For DCJ the actual α/β operator tree is shown,
  each node with its partitioning function and replication probability,
  each level with the expected per-tuple copy counts from the Table 7
  transition matrices.  Nothing is executed.

* **ANALYZE** (:func:`analyze_join`) executes the join — through the
  exact same code path a plain join takes, so results and the paper's
  x/y accounting are bit-identical — and stitches the observed values
  from the span tree and the join metrics next to the predictions, with
  a per-node relative-error column.  Observed durations come from the
  tracer's (injectable) clocks, so ANALYZE output is deterministic under
  fake clocks and snapshot-testable.

Beyond the paper's three disk-based algorithms, the inspector renders
structural plans for the two extra operators the testbed carries: SHJ's
submask-probing **lattice levels** and the hybrid join's cardinality
**switchover** each get their own plan nodes.

The per-join predicted-vs-observed deltas feed the drift layer
(:mod:`repro.obs.drift`), closing the loop between ``repro.analysis``
and ``repro.obs``.  The loop's *act* half feeds back in here too:
passing ``drift_history=`` (or precomputed correction factors) adds a
**corrected** column next to the raw predictions — the model prediction
times the algorithm's recent observed wall-time drift, exactly the
number the drift-aware optimizer compares (:mod:`repro.obs.adaptive`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..analysis.timemodel import PAPER_TIME_MODEL, TimeModel
from ..core.signatures import DEFAULT_SIGNATURE_BITS
from ..errors import ConfigurationError

__all__ = [
    "PlanNode",
    "ExplainReport",
    "AnalyzeResult",
    "build_plan_from_statistics",
    "attach_observed",
    "explain_join",
    "analyze_join",
]

#: Fixed rendering order of metric keys (everything else sorts after).
_METRIC_ORDER = (
    "seconds",
    "drift_correction",
    "cpu_seconds",
    "replication_seconds",
    "comparisons",
    "comparison_factor",
    "replicated",
    "replication_factor",
    "partition_pages",
    "candidates",
    "fetched_r",
    "fetched_s",
    "false_positives",
    "results",
    "page_reads",
    "page_writes",
    "buffer_hits",
    "buffer_misses",
    "buffer_hit_rate",
)

#: Keys that are estimates of distributions, not per-run guarantees;
#: they still get an error column (that is the whole point).
_MAX_RENDERED_PARTITIONS = 16


@dataclass
class PlanNode:
    """One node of an (annotated) plan tree.

    ``predicted`` holds the analytical model's values, ``observed`` the
    measured ones (ANALYZE only); :meth:`errors` pairs them up.  Keys
    are shared between the two dicts where comparison makes sense
    (``seconds``, ``comparisons``, ``replicated``, ...).  ``corrected``
    holds drift-corrected predictions — the raw model value times the
    algorithm's recent observed wall-time drift factor — and renders as
    its own column when any node carries one.
    """

    name: str
    kind: str = "node"  # join | phase | operator | shard | partition | note
    detail: str = ""
    predicted: dict = field(default_factory=dict)
    observed: dict = field(default_factory=dict)
    corrected: dict = field(default_factory=dict)
    children: "list[PlanNode]" = field(default_factory=list)

    def add(self, child: "PlanNode") -> "PlanNode":
        self.children.append(child)
        return child

    def walk(self) -> Iterator["PlanNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def errors(self) -> dict:
        """Signed relative error per shared key: ``(obs − pred) / obs``.

        Positive means the prediction undershot (the run did more / took
        longer than predicted) — the paper's *average prediction error*
        is the mean absolute value of these.  Keys whose observation is
        zero map to ``None`` (no meaningful relative error).
        """
        out: dict = {}
        for key, predicted in self.predicted.items():
            if key not in self.observed:
                continue
            observed = self.observed[key]
            if not isinstance(predicted, (int, float)) or isinstance(
                predicted, bool
            ) or not isinstance(observed, (int, float)) or isinstance(
                observed, bool
            ):
                continue
            if observed == 0:
                out[key] = 0.0 if predicted == 0 else None
            else:
                out[key] = (observed - predicted) / observed
        return out

    def to_dict(self) -> dict:
        """JSON-able representation of the subtree."""
        return {
            "name": self.name,
            "kind": self.kind,
            "detail": self.detail,
            "predicted": dict(self.predicted),
            "corrected": dict(self.corrected),
            "observed": dict(self.observed),
            "errors": self.errors(),
            "children": [child.to_dict() for child in self.children],
        }


def _fmt(value) -> str:
    if value is None:
        return "·"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _fmt_error(error) -> str:
    if error is None:
        return "·"
    return f"{error:+.1%}"


def _metric_keys(node: PlanNode) -> list[str]:
    keys = set(node.predicted) | set(node.observed) | set(node.corrected)
    ordered = [key for key in _METRIC_ORDER if key in keys]
    ordered.extend(sorted(keys - set(_METRIC_ORDER)))
    return ordered


@dataclass
class ExplainReport:
    """A rendered-or-renderable plan tree plus its header context."""

    root: PlanNode
    mode: str  # "explain" | "analyze"
    header: list[str] = field(default_factory=list)

    @property
    def analyzed(self) -> bool:
        return self.mode == "analyze"

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "header": list(self.header),
            "plan": self.root.to_dict(),
        }

    def render(self) -> str:
        """Deterministic plain-text plan tree.

        Layout: one header block, then per node a name line followed by
        one aligned row per metric — predicted, corrected (when a drift
        history supplied correction factors), observed (ANALYZE), and
        the signed relative-error column.
        """
        lines = list(self.header)
        with_corrected = any(node.corrected for node in self.root.walk())
        columns = f"{'':34}{'predicted':>14}"
        if with_corrected:
            columns += f"  {'corrected':>14}"
        if self.analyzed:
            columns += f"  {'observed':>14}  {'err':>8}"
        lines.append(columns)
        self._render_node(self.root, "", None, lines, with_corrected)
        return "\n".join(lines)

    def _render_node(
        self, node: PlanNode, prefix: str, is_last, lines: list[str],
        with_corrected: bool = False,
    ) -> None:
        connector = "" if is_last is None else ("└─ " if is_last else "├─ ")
        title = node.name + (f"  [{node.detail}]" if node.detail else "")
        lines.append(f"{prefix}{connector}{title}")
        child_prefix = prefix + (
            "" if is_last is None else ("   " if is_last else "│  ")
        )
        metric_prefix = child_prefix + ("│  " if node.children else "   ")
        errors = node.errors()
        for key in _metric_keys(node):
            label = f"{metric_prefix}{key}"
            row = f"{label:<34}{_fmt(node.predicted.get(key)):>14}"
            if with_corrected:
                row += f"  {_fmt(node.corrected.get(key)):>14}"
            if self.analyzed:
                row += (
                    f"  {_fmt(node.observed.get(key)):>14}"
                    f"  {_fmt_error(errors.get(key)) if key in errors else '':>8}"
                )
            lines.append(row.rstrip())
        for index, child in enumerate(node.children):
            self._render_node(
                child, child_prefix, index == len(node.children) - 1, lines,
                with_corrected,
            )


@dataclass
class AnalyzeResult:
    """Everything ANALYZE produces: the annotated plan, the join's real
    output (bit-identical to an un-analyzed run), and the drift record."""

    report: ExplainReport
    pairs: set
    metrics: object  # JoinMetrics
    drift: object  # repro.obs.drift.DriftRecord

    def render(self) -> str:
        return self.report.render()


# ----------------------------------------------------------------------
# Predicted plan construction
# ----------------------------------------------------------------------


def build_plan_from_statistics(
    algorithm: str,
    k: int,
    r_size: int,
    s_size: int,
    theta_r: float,
    theta_s: float,
    model: TimeModel = PAPER_TIME_MODEL,
    *,
    partitioner=None,
    signature_bits: int = DEFAULT_SIGNATURE_BITS,
    workers: int = 1,
    backend: str = "serial",
    page_size: int = 4096,
    operator_levels: int = 3,
    drift_corrections: dict | None = None,
    shj_bits: int = 10,
    lattice_levels: int = 6,
    tau: int | None = None,
    quadrants: "list[dict] | None" = None,
) -> ExplainReport:
    """Build the predicted (EXPLAIN) plan tree from join statistics.

    ``partitioner`` (optional) lets the inspector show the concrete
    operator structure — for a :class:`~repro.core.dcj.DCJPartitioner`
    the α/β tree down to ``operator_levels`` levels.  The time formula's
    two terms are mapped onto the phases they model: ``c1·x`` onto the
    joining phase (comparison CPU) and ``c2·y·k^c3`` onto the
    partitioning phase (replication I/O and fragmentation); the
    verification phase is outside the paper's model and carries no time
    prediction.

    ``drift_corrections`` (an ``{algorithm: factor}`` mapping, e.g. from
    :func:`repro.obs.adaptive.drift_corrections`) adds the drift-aware
    optimizer's view: every time prediction also appears in a
    *corrected* column, multiplied by the algorithm's factor.

    Besides the paper's disk-based ``DCJ``/``PSJ``/``LSJ``, two further
    algorithms render structural plans: ``"SHJ"`` shows the submask
    lattice it probes level by level (``shj_bits`` wide signatures, the
    first ``lattice_levels`` levels expanded), and ``"HYBRID"`` shows
    the cardinality switchover at ``tau`` with one sub-plan per active
    quadrant (pass ``quadrants`` — dicts with ``label``, ``algorithm``,
    ``k``, ``r_size``, ``s_size``, ``theta_r``, ``theta_s`` — for exact
    quadrant statistics; otherwise a median-split approximation is
    used).  Neither is covered by the Section 5 time model, so SHJ nodes
    predict probe counts rather than seconds.
    """
    from ..analysis.factors import predict_quantities
    from ..storage.serialization import partition_entry_size

    if theta_r <= 0 or theta_s <= 0:
        raise ConfigurationError(
            "cannot explain a join over empty sets (θ must be positive)"
        )
    corrections = drift_corrections or {}
    if algorithm == "SHJ":
        return _build_shj_plan(
            r_size, s_size, theta_r, theta_s,
            shj_bits=shj_bits, lattice_levels=lattice_levels,
        )
    if algorithm == "HYBRID":
        return _build_hybrid_plan(
            r_size, s_size, theta_r, theta_s, model,
            corrections=corrections, tau=tau, quadrants=quadrants,
            signature_bits=signature_bits, page_size=page_size,
        )
    quantities = predict_quantities(
        algorithm, k, theta_r, theta_s, r_size, s_size
    )
    x = quantities["signature_comparisons"]
    y = quantities["replicated_signatures"]
    cpu_seconds, repl_seconds = model.predict_terms(x, y, k)
    entry_bytes = partition_entry_size((signature_bits + 7) // 8)
    # Both relations' partition stores are written once during
    # partitioning and read once during joining.
    partition_pages = max(1, round(y * entry_bytes / page_size))

    root = PlanNode(
        "set containment join",
        kind="join",
        detail=f"{algorithm} k={k}",
        predicted={
            "seconds": cpu_seconds + repl_seconds,
            "comparisons": x,
            "comparison_factor": quantities["comparison_factor"],
            "replicated": y,
            "replication_factor": quantities["replication_factor"],
        },
    )
    partition = root.add(PlanNode(
        "phase.partition",
        kind="phase",
        detail=_describe_partitioner(partitioner, algorithm, k),
        predicted={
            "seconds": repl_seconds,
            "replicated": y,
            "partition_pages": partition_pages,
        },
    ))
    _attach_operator_tree(
        partition, partitioner, theta_r, theta_s, operator_levels
    )
    join_detail = "block nested loop"
    if workers > 1:
        join_detail += f", workers={workers} ({backend} backend)"
    root.add(PlanNode(
        "phase.join",
        kind="phase",
        detail=join_detail,
        predicted={
            "seconds": cpu_seconds,
            "comparisons": x,
        },
    ))
    root.add(PlanNode(
        "phase.verify",
        kind="phase",
        detail="sorted fetch + exact subset test (outside the time model)",
    ))
    _apply_corrections(root, algorithm, corrections)

    header = [
        f"{algorithm} set containment join"
        f"  |R|={r_size} (θ_R≈{theta_r:.2f})  ⋈⊆  |S|={s_size}"
        f" (θ_S≈{theta_s:.2f})",
        f"model: time(x,y,k) = c1·x + c2·y·k^c3"
        f"  (c1={model.c1:.4g}, c2={model.c2:.4g}, c3={model.c3:.4g})",
        "",
    ]
    return ExplainReport(root=root, mode="explain", header=header)


def _apply_corrections(root: PlanNode, algorithm: str, corrections: dict) -> None:
    """Annotate a plan's time predictions with the drift-corrected view.

    The correction factor scales wall time only — the x/y quantities are
    work counts the drift layer tracks separately — so every node that
    predicts ``seconds`` gets a corrected ``seconds``, and the root also
    shows the factor itself under ``drift_correction``.
    """
    factor = corrections.get(algorithm)
    if factor is None:
        return
    for node in root.walk():
        if "seconds" in node.predicted:
            node.corrected["seconds"] = node.predicted["seconds"] * factor
    root.corrected["drift_correction"] = factor


def _build_shj_plan(
    r_size: int,
    s_size: int,
    theta_r: float,
    theta_s: float,
    *,
    shj_bits: int,
    lattice_levels: int,
) -> ExplainReport:
    """The SHJ plan: hash build, then the submask lattice, level by level.

    SHJ probes every submask of ``sig(s)``; with ``b = shj_bits`` and an
    expected ``m = b·(1 − (1 − 1/b)^θ_S)`` set bits per S-signature, a
    probe walks a lattice of ``2^m`` submasks — ``C(m, ℓ)`` of them at
    level ℓ (ℓ bits cleared).  Each level is its own plan node so the
    exponential blow-up that motivates the paper's disk-based algorithms
    is visible in the plan itself.  SHJ sits outside the Section 5 time
    model, so nodes predict probe counts, not seconds.
    """
    from math import comb

    if not 1 <= shj_bits <= 24:
        raise ConfigurationError(
            f"SHJ signature width must be in 1..24 bits, got {shj_bits}"
        )
    b = shj_bits
    m_r = b * (1.0 - (1.0 - 1.0 / b) ** theta_r)
    m_s = b * (1.0 - (1.0 - 1.0 / b) ** theta_s)
    m = max(1, round(m_s))
    probes = s_size * 2**m

    root = PlanNode(
        "set containment join",
        kind="join",
        detail=f"SHJ, b={b}-bit signatures (main-memory)",
        predicted={
            "probes": probes,
            "E_signature_bits_r": m_r,
            "E_signature_bits_s": m_s,
        },
    )
    root.add(PlanNode(
        "phase.build",
        kind="phase",
        detail=f"hash table over R keyed by {b}-bit signature",
        predicted={"buckets": min(r_size, 2**b)},
    ))
    probe = root.add(PlanNode(
        "phase.probe",
        kind="phase",
        detail="enumerate the submask lattice of sig(s), probe per submask",
        predicted={"probes": probes},
    ))
    shown = min(m, lattice_levels)
    for level in range(shown + 1):
        probe.add(PlanNode(
            f"lattice.level {level}",
            kind="operator",
            detail=f"submasks with {level} of ≈{m} bits cleared",
            predicted={"probes": s_size * comb(m, level)},
        ))
    if m > shown:
        elided = s_size * sum(comb(m, level) for level in range(shown + 1, m + 1))
        probe.add(PlanNode(
            f"… lattice levels {shown + 1}..{m} elided",
            kind="note",
            detail=f"{elided} further probes",
        ))
    root.add(PlanNode(
        "phase.verify",
        kind="phase",
        detail="exact subset test on probe hits (outside the time model)",
    ))
    header = [
        f"SHJ set containment join"
        f"  |R|={r_size} (θ_R≈{theta_r:.2f})  ⋈⊆  |S|={s_size}"
        f" (θ_S≈{theta_s:.2f})",
        "model: n/a — SHJ predates the Section 5 time model"
        f" (probe cost 2^popcount(sig(s)), E≈2^{m_s:.2f} per S-tuple)",
        "",
    ]
    return ExplainReport(root=root, mode="explain", header=header)


def _build_hybrid_plan(
    r_size: int,
    s_size: int,
    theta_r: float,
    theta_s: float,
    model: TimeModel,
    *,
    corrections: dict,
    tau: int | None,
    quadrants: "list[dict] | None",
    signature_bits: int,
    page_size: int,
) -> ExplainReport:
    """The hybrid plan: the switchover at τ plus one sub-plan per quadrant.

    Mirrors :func:`repro.core.hybrid.hybrid_join`: both relations split
    at cardinality τ, the impossible large⋈small quadrant is dropped,
    and each surviving quadrant is planned independently.  Without exact
    ``quadrants`` statistics a median-split approximation is used (each
    relation halves; the small half's θ scaled by 2/3, the large's by
    4/3 — the halves of a distribution straddle its mean).
    """
    from ..core.optimizer import plan_from_statistics

    if tau is None:
        tau = max(1, round(
            (theta_r * r_size + theta_s * s_size) / (r_size + s_size)
        ))
    if quadrants is None:
        quadrants = _approximate_quadrants(r_size, s_size, theta_r, theta_s)

    root = PlanNode(
        "hybrid set containment join",
        kind="join",
        detail=f"cardinality switchover at τ={tau}",
    )
    root.add(PlanNode(
        "switchover",
        kind="operator",
        detail=(
            f"split R and S at |t| < τ={tau}; "
            "drop large⋈small (|r| ≥ τ > |s| forbids r ⊆ s)"
        ),
        predicted={"tau": tau, "quadrants": len(quadrants)},
    ))
    totals = {"seconds": 0.0, "comparisons": 0.0, "replicated": 0.0}
    corrected_total = 0.0
    any_corrected = False
    for quadrant in quadrants:
        sub_algorithm = quadrant.get("algorithm")
        sub_k = quadrant.get("k")
        if sub_algorithm is None or sub_k is None:
            sub_plan = plan_from_statistics(
                quadrant["r_size"], quadrant["s_size"],
                quadrant["theta_r"], quadrant["theta_s"], model,
                drift_history=corrections or None,
            )
            sub_algorithm, sub_k = sub_plan.algorithm, sub_plan.k
        sub_report = build_plan_from_statistics(
            sub_algorithm, sub_k,
            quadrant["r_size"], quadrant["s_size"],
            quadrant["theta_r"], quadrant["theta_s"], model,
            signature_bits=signature_bits, page_size=page_size,
            drift_corrections=corrections,
        )
        node = sub_report.root
        node.name = f"quadrant.{quadrant['label']}"
        node.detail = (
            f"{sub_algorithm} k={sub_k}, "
            f"|R_q|={quadrant['r_size']} |S_q|={quadrant['s_size']}"
        )
        root.add(node)
        totals["seconds"] += node.predicted.get("seconds", 0.0)
        totals["comparisons"] += node.predicted.get("comparisons", 0.0)
        totals["replicated"] += node.predicted.get("replicated", 0.0)
        if "seconds" in node.corrected:
            any_corrected = True
            corrected_total += node.corrected["seconds"]
        else:
            corrected_total += node.predicted.get("seconds", 0.0)
    root.predicted.update(totals)
    if any_corrected:
        root.corrected["seconds"] = corrected_total
    header = [
        f"HYBRID set containment join"
        f"  |R|={r_size} (θ_R≈{theta_r:.2f})  ⋈⊆  |S|={s_size}"
        f" (θ_S≈{theta_s:.2f})",
        f"model: time(x,y,k) = c1·x + c2·y·k^c3 per quadrant"
        f"  (c1={model.c1:.4g}, c2={model.c2:.4g}, c3={model.c3:.4g})",
        "",
    ]
    return ExplainReport(root=root, mode="explain", header=header)


def _approximate_quadrants(
    r_size: int, s_size: int, theta_r: float, theta_s: float,
) -> "list[dict]":
    """Statistics-only quadrant estimates for a median-τ hybrid split."""
    r_half, s_half = max(1, r_size // 2), max(1, s_size // 2)
    small_r = max(theta_r * 2.0 / 3.0, 1e-9)
    large_r = theta_r * 4.0 / 3.0
    small_s = max(theta_s * 2.0 / 3.0, 1e-9)
    large_s = theta_s * 4.0 / 3.0
    return [
        {"label": "small⋈small", "r_size": r_half, "s_size": s_half,
         "theta_r": small_r, "theta_s": small_s},
        {"label": "small⋈large", "r_size": r_half, "s_size": s_half,
         "theta_r": small_r, "theta_s": large_s},
        {"label": "large⋈large", "r_size": r_half, "s_size": s_half,
         "theta_r": large_r, "theta_s": large_s},
    ]


def _describe_partitioner(partitioner, algorithm: str, k: int) -> str:
    if partitioner is not None:
        return partitioner.describe()
    return f"{algorithm}, k={k}"


def _attach_operator_tree(
    parent: PlanNode, partitioner, theta_r: float, theta_s: float,
    operator_levels: int,
) -> None:
    """For DCJ: graft the α/β operator tree under the partition phase.

    Each node shows its partitioning function and the per-tuple
    replication probability the paper's model assigns it (an S-tuple
    replicates at an α-node when h fires, an R-tuple at a β-node when h
    does not); each node also carries the expected copies of one
    R-/S-tuple *after* its level, from the Table 7 transition matrices.
    """
    from ..core.dcj import DCJPartitioner

    if not isinstance(partitioner, DCJPartitioner):
        return
    from ..analysis.factors import dcj_level_copies

    lam = theta_s / theta_r
    q = lam / (1.0 + lam)  # per-level no-fire probability on an R-set
    p_s = 1.0 - q**lam  # per-level firing probability on an S-set
    copies = dcj_level_copies(partitioner.num_levels, theta_r, theta_s)
    nodes_by_path: dict[str, PlanNode] = {}
    rendered = 0
    for spec in partitioner.operator_nodes(max_levels=operator_levels):
        level = spec["level"]
        if spec["op"] == "α":
            predicted = {"p_replicate_s": p_s}
        else:
            predicted = {"p_replicate_r": q}
        predicted["E_copies_r"], predicted["E_copies_s"] = copies[level]
        node = PlanNode(
            f"{spec['op']}({spec['function']})",
            kind="operator",
            detail=f"level {level}, path {spec['path'] or 'root'}",
            predicted=predicted,
        )
        nodes_by_path[spec["path"]] = node
        owner = nodes_by_path.get(spec["path"][:-1]) if spec["path"] else None
        (owner if owner is not None else parent).add(node)
        rendered += 1
    if partitioner.num_levels > operator_levels:
        total = 2**partitioner.num_levels - 1
        parent.add(PlanNode(
            f"… {total - rendered} deeper operator nodes elided",
            kind="note",
            detail=f"levels {operator_levels}..{partitioner.num_levels - 1}",
        ))


# ----------------------------------------------------------------------
# Observed stitching (ANALYZE)
# ----------------------------------------------------------------------


def attach_observed(report: ExplainReport, trace_source, metrics) -> ExplainReport:
    """Stitch a finished run's observations onto a predicted plan.

    ``trace_source`` is anything :func:`repro.obs.export.span_records`
    accepts (typically the :class:`~repro.obs.trace.Tracer` the join ran
    under); ``metrics`` the run's
    :class:`~repro.core.metrics.JoinMetrics`.  Counter-valued
    observations come from the metrics (the paper's authoritative
    accounting); durations come from span durations, i.e. from the
    tracer's injectable clocks, which keeps ANALYZE deterministic in
    tests.
    """
    from .export import span_records
    from .export import _tree_from_records  # shared span-tree builder

    roots = _tree_from_records(span_records(trace_source))
    join_span = _find_span(roots, "join")
    report.mode = "analyze"

    root = report.root
    root.observed.update(
        comparisons=metrics.signature_comparisons,
        comparison_factor=round(metrics.comparison_factor, 9),
        replicated=metrics.replicated_signatures,
        replication_factor=round(metrics.replication_factor, 9),
        results=metrics.result_size,
    )
    if join_span is not None:
        root.observed["seconds"] = join_span.duration

    phase_nodes = {node.name: node for node in root.children}
    partition_span = _find_span(roots, "phase.partition")
    if "phase.partition" in phase_nodes:
        node = phase_nodes["phase.partition"]
        node.observed.update(
            replicated=metrics.replicated_signatures,
            page_reads=metrics.partitioning.page_reads,
            page_writes=metrics.partitioning.page_writes,
            partition_pages=metrics.partitioning.page_writes,
        )
        if partition_span is not None:
            node.observed["seconds"] = partition_span.duration
            for key in (
                "alpha_evaluations", "beta_evaluations",
                "alpha_replications", "beta_replications",
            ):
                if key in partition_span.attrs:
                    node.observed[key] = partition_span.attrs[key]
    join_phase_span = _find_span(roots, "phase.join") or _find_span(
        roots, "phase.join+verify"
    )
    if "phase.join" in phase_nodes:
        node = phase_nodes["phase.join"]
        node.observed.update(
            comparisons=metrics.signature_comparisons,
            candidates=metrics.candidates,
            page_reads=metrics.joining.page_reads,
            page_writes=metrics.joining.page_writes,
            buffer_hits=metrics.buffer_hits,
            buffer_misses=metrics.buffer_misses,
        )
        if join_phase_span is not None:
            node.observed["seconds"] = join_phase_span.duration
            _attach_join_children(node, join_phase_span)
    verify_span = _find_span(roots, "phase.verify")
    if "phase.verify" in phase_nodes:
        node = phase_nodes["phase.verify"]
        node.observed.update(
            candidates=metrics.candidates,
            false_positives=metrics.false_positives,
            results=metrics.result_size,
            page_reads=metrics.verification.page_reads,
        )
        if verify_span is not None:
            node.observed["seconds"] = verify_span.duration
            for key in ("fetched_r", "fetched_s"):
                if key in verify_span.attrs:
                    node.observed[key] = verify_span.attrs[key]
    return report


def _find_span(roots, name: str):
    for root in roots:
        for span in root.walk():
            if span.name == name:
                return span
    return None


def _attach_join_children(node: PlanNode, join_span) -> None:
    """Per-shard (parallel) or per-partition (serial) observed rows."""
    shards = [s for s in join_span.children if s.name == "shard"]
    if shards:
        for span in sorted(shards, key=lambda s: s.attrs.get("index", 0)):
            observed = {
                "seconds": span.duration,
                "comparisons": span.attrs.get("comparisons"),
                "candidates": span.attrs.get("pairs"),
                "page_reads": span.attrs.get("page_reads"),
                "buffer_hits": span.attrs.get("buffer_hits"),
                "buffer_misses": span.attrs.get("buffer_misses"),
            }
            predicted = {}
            if "predicted_comparisons" in span.attrs:
                predicted["comparisons"] = span.attrs["predicted_comparisons"]
            node.add(PlanNode(
                f"shard {span.attrs.get('index', '?')}",
                kind="shard",
                detail=f"{span.attrs.get('partitions', '?')} partitions",
                predicted=predicted,
                observed={k: v for k, v in observed.items() if v is not None},
            ))
        return
    partitions = [s for s in join_span.children if s.name == "join.partition"]
    partitions.sort(
        key=lambda s: (-s.attrs.get("comparisons", 0),
                       s.attrs.get("partition", 0))
    )
    for span in partitions[:_MAX_RENDERED_PARTITIONS]:
        node.add(PlanNode(
            f"partition {span.attrs.get('partition', '?')}",
            kind="partition",
            detail=(
                f"|R_p|={span.attrs.get('r_entries', '?')} "
                f"|S_p|={span.attrs.get('s_entries', '?')}"
            ),
            observed={
                "seconds": span.duration,
                "comparisons": span.attrs.get("comparisons", 0),
            },
        ))
    if len(partitions) > _MAX_RENDERED_PARTITIONS:
        node.add(PlanNode(
            f"… {len(partitions) - _MAX_RENDERED_PARTITIONS} smaller "
            "partition pairs elided",
            kind="note",
        ))


# ----------------------------------------------------------------------
# Entry points over in-memory relations
# ----------------------------------------------------------------------


def explain_join(
    lhs,
    rhs,
    algorithm: str = "auto",
    num_partitions: int | None = None,
    *,
    model: TimeModel = PAPER_TIME_MODEL,
    signature_bits: int = DEFAULT_SIGNATURE_BITS,
    workers: int = 1,
    backend: str = "serial",
    seed: int = 0,
    operator_levels: int = 3,
    drift_history=None,
    shj_bits: int = 10,
    lattice_levels: int = 6,
    tau: int | None = None,
) -> ExplainReport:
    """EXPLAIN: the predicted plan for a join, without executing it.

    ``drift_history`` (drift records, a JSONL path, or an
    ``{algorithm: factor}`` mapping) makes the ``"auto"`` selection
    drift-aware and adds the corrected-prediction column (see
    :func:`build_plan_from_statistics`).  Beyond ``auto``/``DCJ``/
    ``PSJ``/``LSJ``, ``algorithm`` also accepts ``"SHJ"`` (lattice plan,
    ``shj_bits``-wide signatures) and ``"HYBRID"`` (switchover plan at
    ``tau``, default median cardinality, with per-quadrant sub-plans
    computed from the actual relation split).
    """
    if not lhs or not rhs:
        raise ConfigurationError("cannot explain a join over an empty relation")
    from ..core.api import resolve_configuration
    from ..core.optimizer import resolve_drift_corrections

    corrections = resolve_drift_corrections(drift_history)
    theta_r = max(lhs.average_cardinality(), 1e-9)
    theta_s = max(rhs.average_cardinality(), 1e-9)
    if algorithm == "SHJ":
        return build_plan_from_statistics(
            "SHJ", 1, len(lhs), len(rhs), theta_r, theta_s, model,
            shj_bits=shj_bits, lattice_levels=lattice_levels,
        )
    if algorithm == "HYBRID":
        tau, quadrants = _hybrid_quadrants_from_relations(lhs, rhs, tau)
        return build_plan_from_statistics(
            "HYBRID", 0, len(lhs), len(rhs), theta_r, theta_s, model,
            signature_bits=signature_bits, drift_corrections=corrections,
            tau=tau, quadrants=quadrants,
        )
    algorithm, k, theta_r, theta_s, partitioner = resolve_configuration(
        lhs, rhs, algorithm, num_partitions, model, seed,
        corrections or None,
    )
    return build_plan_from_statistics(
        algorithm, k, len(lhs), len(rhs), theta_r, theta_s, model,
        partitioner=partitioner, signature_bits=signature_bits,
        workers=workers, backend=backend,
        operator_levels=operator_levels, drift_corrections=corrections,
    )


def _hybrid_quadrants_from_relations(lhs, rhs, tau):
    """Exact switchover statistics from the actual cardinality split —
    the same τ default and quadrant pruning as
    :func:`repro.core.hybrid.hybrid_join`."""
    from statistics import median

    from ..core.hybrid import split_by_cardinality

    if tau is None:
        cards = [row.cardinality for row in lhs]
        cards += [row.cardinality for row in rhs]
        tau = max(1, int(median(cards)))
    r_small, r_large = split_by_cardinality(lhs, tau)
    s_small, s_large = split_by_cardinality(rhs, tau)
    quadrants = []
    for label, sub_r, sub_s in (
        ("small⋈small", r_small, s_small),
        ("small⋈large", r_small, s_large),
        ("large⋈large", r_large, s_large),
    ):
        if not len(sub_r) or not len(sub_s):
            continue
        quadrants.append({
            "label": label,
            "r_size": len(sub_r),
            "s_size": len(sub_s),
            "theta_r": max(sub_r.average_cardinality(), 1e-9),
            "theta_s": max(sub_s.average_cardinality(), 1e-9),
        })
    return tau, quadrants


def analyze_join(
    lhs,
    rhs,
    algorithm: str = "auto",
    num_partitions: int | None = None,
    *,
    model: TimeModel = PAPER_TIME_MODEL,
    signature_bits: int = DEFAULT_SIGNATURE_BITS,
    workers: int = 1,
    backend: str = "serial",
    seed: int = 0,
    operator_levels: int = 3,
    tracer=None,
    registry=None,
    drift_path: str | None = None,
    drift_history=None,
    wall=None,
) -> AnalyzeResult:
    """ANALYZE: execute the join and annotate the plan with observations.

    The join runs through :func:`repro.core.api.containment_join` — the
    same path a plain call takes — so the result pairs and the paper's
    x/y accounting are bit-identical to an un-analyzed run.  The
    predicted-vs-observed deltas are recorded as a
    :class:`~repro.obs.drift.DriftRecord` into the metrics ``registry``
    (drift gauges and error histograms) and, when ``drift_path`` is
    given, appended to that JSONL file.

    ``tracer`` (default: a fresh real-clock :class:`~repro.obs.trace.Tracer`)
    supplies the observed durations; inject fake clocks for
    deterministic output.  ``wall`` stamps the drift record.

    ``drift_history`` makes the ``"auto"`` selection drift-aware and
    adds the corrected-prediction column (see :func:`explain_join`);
    the recorded drift still compares observations against the *raw*
    model prediction — drift measures the model, not the correction.
    """
    from ..core.api import containment_join
    from .drift import compute_drift, record_drift
    from .trace import Tracer

    report = explain_join(
        lhs, rhs, algorithm, num_partitions, model=model,
        signature_bits=signature_bits, workers=workers,
        backend=backend, seed=seed, operator_levels=operator_levels,
        drift_history=drift_history,
    )
    if tracer is None:
        tracer = Tracer()
    pairs, metrics = containment_join(
        lhs, rhs, algorithm, num_partitions,
        signature_bits=signature_bits, model=model, seed=seed,
        workers=workers, backend=backend, tracer=tracer,
        drift_history=drift_history,
    )
    attach_observed(report, tracer, metrics)
    drift = compute_drift(
        report.root.predicted, metrics, wall=wall
    )
    record_drift(drift, registry=registry)
    if drift_path is not None:
        from .drift import append_drift_jsonl

        append_drift_jsonl(drift, drift_path)
    return AnalyzeResult(report=report, pairs=pairs, metrics=metrics,
                         drift=drift)
