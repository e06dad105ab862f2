"""Matrix executor: run every configuration under exact resource billing.

Each :class:`~repro.ablate.matrix.RunSpec` executes through
:func:`~repro.ablate.bench.run_bench` inside a metrics-registry
snapshot/delta window — the same mechanism the query service bills
individual queries with (PR 9) — so a run's bill is the *exact* counter
movement it caused: page I/O, buffer hits/misses, WAL traffic,
signature comparisons, plan-cache hits/misses.  Runs are attributed to a
:class:`~repro.obs.ledger.WorkloadLedger` keyed by the suite's workload
fingerprint, and the matrix result carries the ledger's reconciliation:
``exact`` must be True — any unattributed counter movement means some
code path did storage work outside a run window, which is a harness bug
the tests pin against.

Clocks are injected (``clock``/``cpu_clock``), never read via
``time.time()``: the CI clock lint covers this module like the rest of
the library.
"""

from __future__ import annotations

import time

from ..obs.flight import QueryContext
from ..obs.ledger import LedgerWindow, WorkloadLedger
from ..obs.registry import get_registry
from .bench import run_bench
from .matrix import RunSpec

__all__ = ["execute_matrix", "execute_run"]


def execute_run(spec: RunSpec, registry=None, repeats: int = 2,
                clock=None, cpu_clock=None) -> dict:
    """Execute one configuration; returns its full run row.

    The row is everything downstream consumers need: identity (run ID,
    component/variant/invariance, knobs), the deterministic outcome
    (x/y, pairs digests, plan-phase extras), the exact resource bill,
    and the workload fingerprint tag.
    """
    registry = registry if registry is not None else get_registry()
    clock = clock if clock is not None else time.perf_counter
    cpu_clock = cpu_clock if cpu_clock is not None else time.process_time
    window = LedgerWindow(registry, clock, cpu_clock)
    outcome = run_bench(spec.knobs, scale=spec.scale, seed=spec.seed,
                        repeats=repeats)
    ledger = window.close()
    row = spec.to_dict()
    row.update(outcome)
    row["wall_seconds"] = ledger.wall_seconds
    row["cpu_seconds"] = ledger.cpu_seconds
    row["resources"] = ledger.resources
    row["_ledger"] = ledger  # stripped before serialization
    return row


def execute_matrix(specs: list[RunSpec], registry=None, repeats: int = 2,
                   clock=None, cpu_clock=None, progress=None,
                   warmup: bool = True) -> dict:
    """Execute a whole matrix; returns runs plus the reconciliation.

    ``progress`` (an optional callable taking the finished row) lets the
    CLI stream per-run lines without this module printing anything.
    ``warmup`` runs the first configuration once, unbilled, before the
    ledger window opens — the matrix's first run would otherwise pay
    one-time import/JIT warm-up and skew every wall-time delta against
    the baseline.
    """
    registry = registry if registry is not None else get_registry()
    if warmup and specs:
        run_bench(specs[0].knobs, scale=specs[0].scale,
                  seed=specs[0].seed, repeats=1)
    workload_ledger = WorkloadLedger(registry=registry)
    workload_ledger.begin()
    rows: list[dict] = []
    for spec in specs:
        row = execute_run(spec, registry=registry, repeats=repeats,
                          clock=clock, cpu_clock=cpu_clock)
        workload_ledger.attribute(QueryContext(
            None, "ablation", status="ok", ledger=row.pop("_ledger"),
            fingerprint=row["fingerprint"], label=row["label"],
        ))
        rows.append(row)
        if progress is not None:
            progress(row)
    return {
        "runs": rows,
        "reconciliation": workload_ledger.reconcile(),
        "workload_report": workload_ledger.report(top=3),
    }
