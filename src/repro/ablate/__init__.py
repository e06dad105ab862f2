"""Declarative ablation harness: which component earns its cost?

The system is a stack of separable design choices — the paper's
(α/β alternation, optimal firing probability, hash-family construction)
and the repo's own (WAL, checksums, buffer pool, plan cache, parallel
backends).  This package measures each one's
importance by turning it off alone and diffing the result against a
common baseline:

* :mod:`~repro.ablate.registry` — the component registry: name, layer,
  knob overrides per variant, and the invariance class (``answer-exact``
  vs ``answer-affecting``) the harness enforces.
* :mod:`~repro.ablate.matrix` — baseline-plus-one-off run matrix with
  stable content-hashed run IDs.
* :mod:`~repro.ablate.bench` — the canonical two-workload suite every
  configuration executes.
* :mod:`~repro.ablate.executor` — runs the matrix under metrics-registry
  snapshot/delta billing (PR 9's ledger) with exact reconciliation.
* :mod:`~repro.ablate.score` — importance ranking, the committed
  TSV/JSONL report formats, and the CI tripwire.

Entry points: ``repro ablate`` (CLI), ``make ablations``, and the
``ablation-importance`` CI job.  See ``docs/ablation.md``.
"""

from .bench import run_bench, suite_fingerprint
from .executor import execute_matrix, execute_run
from .matrix import ABLATE_SCHEMA, SUITE, RunSpec, build_matrix, run_id_for
from .registry import (
    ANSWER_AFFECTING,
    ANSWER_EXACT,
    BASELINE_KNOBS,
    Component,
    all_components,
    get_component,
    register_component,
)
from .score import (
    check_importance,
    parse_importance_tsv,
    render_importance_tsv,
    score_runs,
)

__all__ = [
    "ABLATE_SCHEMA",
    "ANSWER_AFFECTING",
    "ANSWER_EXACT",
    "BASELINE_KNOBS",
    "Component",
    "RunSpec",
    "SUITE",
    "all_components",
    "build_matrix",
    "check_importance",
    "execute_matrix",
    "execute_run",
    "get_component",
    "parse_importance_tsv",
    "register_component",
    "render_importance_tsv",
    "run_bench",
    "run_id_for",
    "score_runs",
    "suite_fingerprint",
]
