"""EXPLAIN/ANALYZE plan inspector.

The paper's analysis predicts a join before it runs — comparison factor,
replication factor, the calibrated time model — and the tracer measures
it afterwards.  This module puts both on one tree so a user can ask
"what did the optimizer expect, and how far off was it?":

* **EXPLAIN** (:func:`build_plan_from_statistics`, reached through
  :meth:`JoinPlan.explain <repro.core.optimizer.JoinPlan.explain>` from
  every shell) renders the one plan the join runs, annotated with its
  :meth:`~repro.core.optimizer.JoinPlan.prediction`: x/y from the Table 7
  factors, page I/O for the partition store, and the Section 5 time
  formula split into its CPU and replication terms.  For DCJ the actual
  α/β operator tree is shown, each node with its partitioning function
  and replication probability, each level with the expected per-tuple
  copy counts from the Table 7 transition matrices.  An ``auto`` plan's
  header carries the optimizer's decision.  Nothing is executed.

* **ANALYZE** (:func:`analyze_join`) executes that plan — through the
  operator a plain join runs, so results and the paper's x/y accounting
  are bit-identical — and stitches the observed values from the span
  tree and the join metrics next to the predictions, with a per-node
  relative-error column; its drift record is the annotated root.
  Observed durations come from the tracer's (injectable) clocks, so
  ANALYZE output is deterministic under fake clocks and
  snapshot-testable.

Both describe only the plans :func:`repro.core.api.containment_join`
runs: ``auto``, ``DCJ``, ``PSJ`` and ``LSJ``.

The per-join predicted-vs-observed deltas feed the drift layer
(:mod:`repro.obs.drift`), closing the loop between ``repro.analysis``
and ``repro.obs``.  The loop's *act* half reaches EXPLAIN through
``model=`` alone: a refitted model (:mod:`repro.obs.adaptive`) prices
every node, exactly as it prices the optimizer's candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator

from ..analysis.timemodel import PAPER_TIME_MODEL, TimeModel
from ..core.signatures import DEFAULT_SIGNATURE_BITS
from ..errors import ConfigurationError
from .drift import signed_error

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

#: Serial ANALYZE renders the heaviest partition pairs, at most this many.
_MAX_RENDERED_PARTITIONS = 16


@dataclass
class PlanNode:
    """One node of an (annotated) plan tree.

    ``predicted`` holds the analytical model's values, ``observed`` the
    measured ones (ANALYZE only); :meth:`errors` pairs them up.  Keys
    are shared between the two dicts where comparison makes sense
    (``seconds``, ``comparisons``, ``replicated``, ...).
    """

    name: str
    kind: str = "node"  # join | phase | operator | shard | partition | note
    detail: str = ""
    predicted: dict = field(default_factory=dict)
    observed: dict = field(default_factory=dict)
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
        return {
            key: signed_error(predicted, self.observed[key])
            for key, predicted in self.predicted.items()
            if key in self.observed
            and _is_number(predicted) and _is_number(self.observed[key])
        }

    def to_dict(self) -> dict:
        """JSON-able representation of the subtree."""
        return {
            "name": self.name,
            "kind": self.kind,
            "detail": self.detail,
            "predicted": dict(self.predicted),
            "observed": dict(self.observed),
            "errors": self.errors(),
            "children": [child.to_dict() for child in self.children],
        }


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _fmt(value) -> str:
    if value is None:
        return "·"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _fmt_error(error) -> str:
    if error is None:
        return "·"
    return f"{error:+.1%}"


def _metric_keys(node: PlanNode) -> list[str]:
    keys = set(node.predicted) | set(node.observed)
    ordered = [key for key in _METRIC_ORDER if key in keys]
    ordered.extend(sorted(keys - set(_METRIC_ORDER)))
    return ordered


@dataclass
class ExplainReport:
    """A rendered-or-renderable plan tree plus its header context."""

    root: PlanNode
    mode: str  # "explain" | "analyze"
    header: list[str] = field(default_factory=list)
    plan: object = None  # the JoinPlan rendered, when built from one

    @property
    def analyzed(self) -> bool:
        return self.mode == "analyze"

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "header": list(self.header),
            "plan": self.root.to_dict(),
        }

    def __str__(self) -> str:
        return self.render()

    def render(self) -> str:
        """Deterministic plain-text plan tree.

        Layout: one header block, then per node a name line followed by
        one aligned row per metric — predicted, observed (ANALYZE), and
        the signed relative-error column.
        """
        lines = list(self.header)
        columns = f"{'':34}{'predicted':>14}"
        if self.analyzed:
            columns += f"  {'observed':>14}  {'err':>8}"
        lines.append(columns)
        self._render_node(self.root, "", None, lines)
        return "\n".join(lines)

    def _render_node(
        self, node: PlanNode, prefix: str, is_last, lines: list[str],
    ) -> None:
        connector = "" if is_last is None else ("└─ " if is_last else "├─ ")
        title = node.name + (f"  [{node.detail}]" if node.detail else "")
        lines.append(f"{prefix}{connector}{title}")
        child_prefix = prefix + (
            "" if is_last is None else ("   " if is_last else "│  ")
        )
        metric_prefix = child_prefix + ("│  " if node.children else "   ")
        errors = node.errors() if self.analyzed else {}
        for key in _metric_keys(node):
            label = f"{metric_prefix}{key}"
            row = f"{label:<34}{_fmt(node.predicted.get(key)):>14}"
            if self.analyzed:
                row += (
                    f"  {_fmt(node.observed.get(key)):>14}"
                    f"  {_fmt_error(errors.get(key)) if key in errors else '':>8}"
                )
            lines.append(row.rstrip())
        for index, child in enumerate(node.children):
            self._render_node(
                child, child_prefix, index == len(node.children) - 1, lines,
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
    plan,
    *,
    seed: int = 0,
    signature_bits: int = DEFAULT_SIGNATURE_BITS,
    workers: int = 1,
    backend: str = "serial",
    page_size: int = 4096,
    operator_levels: int = 3,
) -> ExplainReport:
    """Render a :class:`~repro.core.optimizer.JoinPlan` as its EXPLAIN tree.

    The root carries :meth:`JoinPlan.prediction
    <repro.core.optimizer.JoinPlan.prediction>` as it is; nothing here
    prices the plan again.  The time formula's two terms are mapped onto
    the phases they model: ``c1·x`` onto the joining phase (comparison
    CPU) and ``c2·y·k^c3`` onto the partitioning phase (replication I/O
    and fragmentation); the verification phase is outside the paper's
    model and carries no time prediction.  The partitioner the plan
    builds at ``seed`` names the partition phase, and for DCJ its α/β
    tree is shown down to ``operator_levels`` levels.  When the plan
    compared candidates, the header carries the decision.
    """
    from ..storage.serialization import partition_entry_size

    prediction = plan.prediction()
    partitioner = plan.build_partitioner(seed)
    entry_bytes = partition_entry_size((signature_bits + 7) // 8)
    # Both relations' partition stores are written once during
    # partitioning and read once during joining.
    partition_pages = max(
        1, round(prediction["replicated"] * entry_bytes / page_size)
    )

    root = PlanNode(
        "set containment join",
        kind="join",
        detail=f"{plan.algorithm} k={plan.k}",
        predicted=prediction,
    )
    partition = root.add(PlanNode(
        "phase.partition",
        kind="phase",
        detail=partitioner.describe(),
        predicted={
            "seconds": prediction["replication_seconds"],
            "replicated": prediction["replicated"],
            "partition_pages": partition_pages,
        },
    ))
    _attach_operator_tree(
        partition, partitioner, plan.theta_r, plan.theta_s, operator_levels
    )
    join_detail = "block nested loop"
    if workers > 1:
        join_detail += f", workers={workers} ({backend} backend)"
    root.add(PlanNode(
        "phase.join",
        kind="phase",
        detail=join_detail,
        predicted={
            "seconds": prediction["cpu_seconds"],
            "comparisons": prediction["comparisons"],
        },
    ))
    root.add(PlanNode(
        "phase.verify",
        kind="phase",
        detail="sorted fetch + exact subset test (outside the time model); "
        f"elided at run time if every element < {signature_bits}",
    ))

    model = plan.model
    header = [
        f"{plan.algorithm} set containment join"
        f"  |R|={plan.r_size} (θ_R≈{plan.theta_r:.2f})  ⋈⊆  |S|={plan.s_size}"
        f" (θ_S≈{plan.theta_s:.2f})",
        f"model: time(x,y,k) = c1·x + c2·y·k^c3"
        f"  (c1={model.c1:.4g}, c2={model.c2:.4g}, c3={model.c3:.4g})",
        *_decision_lines(plan),
        "",
    ]
    return ExplainReport(root=root, mode="explain", header=header, plan=plan)


def _decision_lines(plan, top: int = 5) -> "list[str]":
    """The optimizer's decision: the choice, the best k per algorithm and
    the closest-contending candidates (none for a one-candidate plan)."""
    if len(plan.candidates) < 2:
        return []
    lines = [
        f"chosen: {plan.algorithm} with k={plan.k} "
        f"(predicted {plan.predicted_seconds:.3f}s)",
    ]
    seconds = attrgetter("predicted_seconds")
    for algorithm in sorted({c.algorithm for c in plan.candidates}):
        candidate = min((c for c in plan.candidates
                         if c.algorithm == algorithm), key=seconds)
        lines.append(
            f"  best {algorithm}: k={candidate.k}, "
            f"comp={candidate.comparison_factor:.4f}, "
            f"repl={candidate.replication_factor:.2f}, "
            f"predicted {candidate.predicted_seconds:.3f}s"
        )
    contenders = sorted(plan.candidates, key=seconds)[:top]
    lines.append("  closest candidates: " + ", ".join(
        f"{candidate.algorithm}(k={candidate.k}, "
        f"{candidate.predicted_seconds:.3f}s)"
        for candidate in contenders
    ))
    return lines


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
    root.observed["seconds"] = (
        join_span.duration if join_span is not None else metrics.total_seconds
    )

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
    join_phase_span = _find_span(roots, "phase.join")
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
            if verify_span.attrs.get("elided"):
                node.detail = (
                    "elided: lossless signature (max element "
                    f"{verify_span.attrs['max_element']} < "
                    f"{metrics.signature_bits} bits)"
                )
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
) -> ExplainReport:
    """EXPLAIN: the predicted plan for a join, without executing it.

    ``algorithm`` is one of ``auto``/``DCJ``/``PSJ``/``LSJ``, the joins
    :func:`repro.core.api.containment_join` runs; ``model`` prices the
    plan and, for ``"auto"``, chooses it from exact statistics.
    """
    from ..core.optimizer import resolve_plan

    if not lhs or not rhs:
        raise ConfigurationError("cannot explain a join over an empty relation")
    plan = resolve_plan(
        algorithm, num_partitions, len(lhs), lhs.average_cardinality(),
        len(rhs), rhs.average_cardinality(), model,
    )
    return plan.explain(
        seed=seed, signature_bits=signature_bits, workers=workers,
        backend=backend, operator_levels=operator_levels,
    )


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
    wall=None,
) -> AnalyzeResult:
    """ANALYZE: execute the join and annotate the plan with observations.

    The plan EXPLAIN renders is the plan that runs: the join goes
    through the path :func:`repro.core.api.containment_join` takes, which
    resolves the plan and joins the held relations, so the result pairs
    and the paper's x/y accounting are bit-identical to an un-analyzed
    run.  The annotated root's predicted and observed values become a
    :class:`~repro.obs.drift.DriftRecord` — the record holds exactly the
    numbers and errors the report prints — published into the metrics
    ``registry`` (drift gauges and error histograms) and, when
    ``drift_path`` is given, appended to that JSONL file.

    ``tracer`` (default: a fresh real-clock :class:`~repro.obs.trace.Tracer`)
    supplies the observed durations; inject fake clocks for
    deterministic output.  ``wall`` stamps the drift record.
    """
    from ..core.api import _held_join
    from .drift import append_drift_jsonl, compute_drift, record_drift
    from .trace import Tracer

    tracer = Tracer() if tracer is None else tracer
    plan, pairs, metrics = _held_join(
        lhs, rhs, algorithm, num_partitions, signature_bits, model, seed,
        workers, backend, tracer,
    )
    if plan is None:
        raise ConfigurationError("cannot explain a join over an empty relation")
    report = plan.explain(
        seed=seed, signature_bits=signature_bits, workers=workers,
        backend=backend, operator_levels=operator_levels,
    )
    attach_observed(report, tracer, metrics)
    drift = compute_drift(
        report.root.predicted, metrics, wall=wall,
        observed=report.root.observed,
    )
    record_drift(drift, registry=registry)
    if drift_path is not None:
        append_drift_jsonl(drift, drift_path)
    return AnalyzeResult(report=report, pairs=pairs, metrics=metrics,
                         drift=drift)
