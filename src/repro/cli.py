"""Command-line interface: ``setjoins <command>``.

Commands:

* ``join``       -- run a set containment join over two set files
                    (``--explain`` / ``--analyze`` for the plan inspector)
* ``plan``       -- run the optimizer's 5-step selection procedure only
* ``experiment`` -- regenerate one of the paper's figures/tables
* ``serve``      -- expose process metrics over HTTP (Prometheus format),
                    or with ``--service DB`` the long-lived query service
                    (admission control, deadlines, retries, /join + /probe;
                    ``--capture JSONL`` records every query for replay)
* ``workload``   -- aggregate a capture file into the heavy-hitter report
* ``replay``     -- re-execute a capture against a database and diff
                    answers and deterministic resources per query
* ``ablate``     -- run the component-importance ablation matrix and
                    rank components by their deltas vs baseline
* ``demo``       -- the Section 2 worked example, end to end

Set files are plain text: one set per line, whitespace-separated
non-negative integer elements; the line number (0-based) is the tuple id.
"""

from __future__ import annotations

import argparse
import sys
import time

from .analysis.timemodel import PAPER_TIME_MODEL
from .core.api import containment_join
from .core.optimizer import choose_plan
from .core.sets import Relation
from .errors import SetJoinError

__all__ = ["main", "load_relation_file"]

# Wall-clock reference for history timestamps (injected-clock idiom:
# stored once so tests can monkeypatch it; library code never calls
# time.time() directly — the CI clock lint enforces this).
_WALL_CLOCK = time.time


def load_relation_file(path: str, name: str = "") -> Relation:
    """Parse a one-set-per-line text file into a relation."""
    from .data.io import load_relation

    return load_relation(path, name=name)


def _cmd_join(arguments) -> int:
    import os

    lhs = load_relation_file(arguments.r_file, "R")
    rhs = load_relation_file(arguments.s_file, "S")
    algorithm = (
        "auto" if arguments.algorithm == "auto"
        else arguments.algorithm.upper()
    )
    if arguments.drift and not (arguments.analyze or arguments.explain):
        print("error: --drift requires --analyze (or --explain, which "
              "uses the history read-only)", file=sys.stderr)
        return 2
    if arguments.recalibrate and not (arguments.drift and arguments.analyze):
        print("error: --recalibrate requires --analyze --drift PATH",
              file=sys.stderr)
        return 2

    # The closed loop: the model store's freshest recalibrated version
    # plans this join, and the drift history (when it already exists)
    # weights the auto selection by each algorithm's recent drift.
    model = PAPER_TIME_MODEL
    store = None
    if arguments.recalibrate or arguments.model_store:
        from .obs.adaptive import ModelStore

        store_path = arguments.model_store or (
            f"{arguments.drift}.models.json" if arguments.drift else None
        )
        store = ModelStore(store_path)
        model = store.active
        if store.active_version:
            print(f"# planning with recalibrated model v"
                  f"{store.active_version} (c1={model.c1:.4g}, "
                  f"c2={model.c2:.4g}, c3={model.c3:.4g})",
                  file=sys.stderr)
    drift_history = (
        arguments.drift
        if arguments.drift and os.path.exists(arguments.drift) else None
    )

    if arguments.shards > 1:
        if arguments.analyze or arguments.drift:
            print("error: --analyze/--drift are not supported with "
                  "--shards yet; use the single-database path",
                  file=sys.stderr)
            return 2
        return _run_sharded_join(arguments, lhs, rhs, algorithm, model)

    # The one request EXPLAIN, ANALYZE and the plain join all describe.
    request = dict(
        algorithm=algorithm,
        num_partitions=arguments.partitions,
        model=model,
        signature_bits=arguments.signature_bits,
        workers=arguments.workers,
        backend=arguments.parallel_backend,
        drift_history=drift_history,
    )
    if arguments.explain:
        from .obs.explain import explain_join

        print(explain_join(lhs, rhs, **request).render())
        return 0

    tracer = None
    if arguments.trace or arguments.trace_summary or arguments.analyze:
        from .obs import Tracer

        tracer = Tracer()

    if arguments.analyze:
        from .obs.explain import analyze_join

        analysis = analyze_join(
            lhs, rhs, tracer=tracer, drift_path=arguments.drift, **request
        )
        result, metrics = analysis.pairs, analysis.metrics
        print(analysis.render())
        if arguments.drift:
            print(f"# drift record appended to {arguments.drift}",
                  file=sys.stderr)
        if arguments.recalibrate:
            from .obs.adaptive import Recalibrator

            recalibrator = Recalibrator(store=store)
            outcome = recalibrator.maybe_recalibrate(arguments.drift)
            print(f"# recalibration: {outcome.reason}", file=sys.stderr)
            if outcome.refit:
                print(f"# model store: v{store.active_version} written to "
                      f"{store.path}", file=sys.stderr)
    else:
        result, metrics = containment_join(
            lhs, rhs, tracer=tracer, **request
        )
        if algorithm == "auto" and metrics.num_partitions:
            print(f"# planned: {metrics.algorithm} with "
                  f"k={metrics.num_partitions}", file=sys.stderr)
        for r_tid, s_tid in sorted(result):
            print(f"{r_tid}\t{s_tid}")
    parallel_note = ""
    if arguments.workers > 1:
        parallel_note = (
            f" ({arguments.workers} workers, "
            f"{arguments.parallel_backend} backend)"
        )
    print(
        f"# {len(result)} pairs; {metrics.signature_comparisons} signature "
        f"comparisons, {metrics.replicated_signatures} replicated signatures, "
        f"{metrics.total_seconds:.3f}s{parallel_note}",
        file=sys.stderr,
    )
    if tracer is not None and arguments.trace:
        from .obs import write_trace_jsonl

        spans = write_trace_jsonl(tracer, arguments.trace)
        print(f"# trace: {spans} spans written to {arguments.trace}",
              file=sys.stderr)
    if arguments.trace or arguments.trace_summary or arguments.metrics:
        # Record before the summary prints, so the session latency
        # percentiles include the join that just ran.
        from .obs import record_join

        record_join(metrics)
    if tracer is not None and (arguments.trace or arguments.trace_summary):
        from .obs import console_summary, get_registry

        print(console_summary(tracer, registry=get_registry()),
              file=sys.stderr)
    if arguments.metrics:
        from .obs import get_registry, prometheus_text

        text = prometheus_text(get_registry())
        if arguments.metrics == "-":
            print(text, end="")
        else:
            with open(arguments.metrics, "w") as handle:
                handle.write(text)
            print(f"# metrics written to {arguments.metrics}",
                  file=sys.stderr)
    return 0


def _run_sharded_join(arguments, lhs, rhs, algorithm, model) -> int:
    """``setjoins join --shards N``: distribute the two relations over N
    in-memory shards and join through the dist coordinator."""
    from .dist import ShardedDatabase

    with ShardedDatabase.open(
        None, shards=arguments.shards, fanout=arguments.shard_fanout,
        prune=arguments.prune, model=model,
    ) as db:
        db.create_relation("R", lhs)
        db.create_relation("S", rhs)
        if arguments.explain:
            print(db.explain("R", "S"))
            return 0
        result, metrics = db.join(
            "R", "S",
            algorithm=algorithm,
            num_partitions=arguments.partitions,
            signature_bits=arguments.signature_bits,
            workers=arguments.workers,
            backend=arguments.parallel_backend,
        )
        for r_tid, s_tid in sorted(result):
            print(f"{r_tid}\t{s_tid}")
        report = db.last_placement
        print(
            f"# {len(result)} pairs; {metrics.signature_comparisons} "
            f"signature comparisons, {metrics.replicated_signatures} "
            f"replicated signatures, {metrics.total_seconds:.3f}s "
            f"({arguments.shards} shards, {arguments.shard_fanout} fan-out, "
            f"R replication factor {report.replication_factor:.3f})",
            file=sys.stderr,
        )
    return 0


def _cmd_plan(arguments) -> int:
    lhs = load_relation_file(arguments.r_file, "R")
    rhs = load_relation_file(arguments.s_file, "S")
    plan = choose_plan(lhs, rhs, PAPER_TIME_MODEL)
    print(f"algorithm: {plan.algorithm}")
    print(f"partitions: {plan.k}")
    print(f"predicted_seconds: {plan.predicted_seconds:.4f}")
    print(f"theta_r: {plan.theta_r:.2f}")
    print(f"theta_s: {plan.theta_s:.2f}")
    return 0


def _cmd_experiment(arguments) -> int:
    from contextlib import nullcontext

    from .experiments import get_experiment

    kwargs = {}
    if arguments.scale is not None and arguments.id in (
            "fig8", "fig9", "parallel", "dist"):
        kwargs["scale"] = arguments.scale
    tracer = None
    scope = nullcontext()
    if arguments.trace:
        from .obs import Tracer
        from .obs.trace import use_tracer

        tracer = Tracer()
        scope = use_tracer(tracer)
    with scope:
        result = get_experiment(arguments.id)(**kwargs)
    if arguments.plot:
        from .experiments.plotting import plot_result

        print(plot_result(result))
    else:
        print(result.render())
    if tracer is not None:
        from .obs import write_trace_jsonl

        spans = write_trace_jsonl(tracer, arguments.trace)
        print(f"# trace: {spans} spans written to {arguments.trace}",
              file=sys.stderr)
    return 0


def _cmd_generate(arguments) -> int:
    from .data.distributions import (
        cardinality_distribution,
        element_distribution,
    )
    from .data.generator import RelationSpec, generate_relation
    from .data.io import save_relation

    spec = RelationSpec(
        size=arguments.size,
        cardinality=cardinality_distribution(
            arguments.cardinality, arguments.theta
        ),
        elements=element_distribution(arguments.distribution, arguments.domain),
        name=arguments.out,
    )
    relation = generate_relation(spec, seed=arguments.seed)
    count = save_relation(relation, arguments.out)
    print(f"wrote {count} sets to {arguments.out} "
          f"(θ≈{relation.average_cardinality():.1f}, "
          f"domain {arguments.domain}, {arguments.distribution} elements, "
          f"{arguments.cardinality} cardinalities)", file=sys.stderr)
    return 0


def _wait_forever() -> None:
    import threading

    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass


def _cmd_serve(arguments) -> int:
    if arguments.service is not None:
        return _cmd_serve_service(arguments)
    from .obs.serve import MetricsServer

    server = MetricsServer(arguments.host, arguments.port,
                           token=arguments.token).start()
    auth_note = " (bearer-token auth)" if arguments.token else ""
    print(f"serving {server.url}/metrics{auth_note} and "
          f"{server.url}/healthz (Ctrl-C to stop)", file=sys.stderr)
    try:
        _wait_forever()
    finally:
        server.stop()
    return 0


def _cmd_serve_service(arguments) -> int:
    """The long-lived query service: ``repro serve --service DB``."""
    from .service import QueryService, ServiceServer

    slo = {}
    if arguments.slo_join is not None:
        slo["join"] = arguments.slo_join
    if arguments.slo_probe is not None:
        slo["probe"] = arguments.slo_probe
    service = QueryService(
        arguments.service,
        workers=arguments.workers,
        backend=arguments.backend,
        shards=arguments.shards,
        plan_cache_size=arguments.plan_cache_size,
        queue_depth=arguments.queue_depth,
        default_deadline=arguments.deadline,
        drift_path=arguments.drift,
        recalibrate_every=arguments.recalibrate_every,
        model_store=arguments.model_store,
        trace_path=arguments.trace,
        flight_recorder=arguments.flight_recorder,
        postmortem_dir=arguments.postmortems,
        slo=slo or None,
        profile_hz=arguments.profile_hz,
        capture_path=arguments.capture,
    )
    service.start()
    service.install_signal_handlers()
    server = ServiceServer(service, arguments.host, arguments.port,
                           token=arguments.token).start()
    capture_note = (
        f"; capturing workload to {arguments.capture}"
        if arguments.capture else ""
    )
    print(f"query service on {server.url} — POST /join, POST /probe, "
          f"GET /readyz, /healthz, /metrics, /debug/queries, "
          f"/debug/query/<id>, /debug/profile, /debug/workload, "
          f"/debug/slo "
          f"(workers={arguments.workers}, backend={arguments.backend}, "
          f"queue={arguments.queue_depth}{capture_note}; "
          f"SIGTERM or Ctrl-C drains)",
          file=sys.stderr)
    try:
        # Blocks until a SIGTERM/SIGINT-triggered drain completes.
        service.wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        # The signal handlers already drain; this covers other exits and
        # is a no-op when the service is stopped.
        service.stop()
        print("drained and stopped", file=sys.stderr)
    return 0


def _cmd_db(arguments) -> int:
    import os

    from .database import SetJoinDatabase

    server = None
    if arguments.serve:
        from .obs.serve import MetricsServer

        server = MetricsServer(arguments.host, arguments.port,
                               token=arguments.token).start()
        print(f"# serving {server.url}/metrics", file=sys.stderr)
    sharded = (
        arguments.shards is not None
        or os.path.exists(arguments.database + ".shards.json")
    )
    try:
        opener = (
            SetJoinDatabase.open_sharded(
                arguments.database, shards=arguments.shards
            )
            if sharded else SetJoinDatabase.open(arguments.database)
        )
        with opener as db:
            status = _run_db_action(db, arguments)
        if server is not None and status == 0:
            print("# action done; still serving metrics (Ctrl-C to stop)",
                  file=sys.stderr)
            _wait_forever()
        return status
    finally:
        if server is not None:
            server.stop()


def _run_db_action(db, arguments) -> int:
    if arguments.action == "list":
        for name in db.relation_names():
            print(f"{name}\t{db.relation_size(name)} tuples")
        return 0
    if arguments.action == "load":
        if len(arguments.args) != 2:
            print("usage: setjoins db FILE load NAME SETFILE",
                  file=sys.stderr)
            return 2
        name, set_file = arguments.args
        relation = load_relation_file(set_file, name)
        count = db.create_relation(name, relation)
        print(f"loaded {count} tuples into {name!r}")
        return 0
    if arguments.action == "drop":
        if len(arguments.args) != 1:
            print("usage: setjoins db FILE drop NAME", file=sys.stderr)
            return 2
        db.drop_relation(arguments.args[0])
        print(f"dropped {arguments.args[0]!r}")
        return 0
    if arguments.action == "explain":
        if len(arguments.args) != 2:
            print("usage: setjoins db FILE explain R S", file=sys.stderr)
            return 2
        print(db.explain(*arguments.args))
        if hasattr(db, "explain_plan"):
            print()
            print(db.explain_plan(*arguments.args).render())
        return 0
    if arguments.action == "reshard":
        if len(arguments.args) != 1 or not arguments.args[0].isdigit():
            print("usage: setjoins db FILE reshard N", file=sys.stderr)
            return 2
        if not hasattr(db, "reshard"):
            print("error: reshard requires a sharded database "
                  "(open with --shards)", file=sys.stderr)
            return 2
        report = db.reshard(int(arguments.args[0]))
        print(f"resharded {report.old_shard_ids} → {report.new_shard_ids}: "
              f"{report.moved_rows}/{report.total_rows} rows moved "
              f"({report.moved_fraction:.1%})")
        return 0
    if arguments.action == "join":
        if len(arguments.args) != 2:
            print("usage: setjoins db FILE join R S", file=sys.stderr)
            return 2
        pairs, metrics = db.join(*arguments.args)
        for r_tid, s_tid in sorted(pairs):
            print(f"{r_tid}\t{s_tid}")
        print(f"# {len(pairs)} pairs in {metrics.total_seconds:.3f}s "
              f"({metrics.algorithm}, k={metrics.num_partitions})",
              file=sys.stderr)
        return 0
    if arguments.action == "stats":
        for key, value in db.stats().items():
            if isinstance(value, float):
                print(f"{key}\t{value:.4f}")
            else:
                print(f"{key}\t{value}")
        return 0
    if arguments.action == "verify":
        from .errors import StorageError

        try:
            report = db.verify_integrity()
        except StorageError as error:
            print(f"INTEGRITY FAILURE: {error}", file=sys.stderr)
            return 1
        print(f"ok: {report['relations']} relations, "
              f"{report['tuples']} tuples, "
              f"{report['pages_read']} pages read, "
              f"all checksums valid")
        return 0
    print(f"unknown db action {arguments.action!r}", file=sys.stderr)
    return 2


def _cmd_workload(arguments) -> int:
    """Offline heavy-hitter report: ``setjoins workload CAPTURE``."""
    import json

    from .obs.ledger import WorkloadLedger
    from .service.capture import read_capture

    records = read_capture(arguments.capture)
    ledger = WorkloadLedger()
    for record in records:
        ledger.attribute(record)
    if arguments.json:
        print(json.dumps(ledger.report(top=arguments.top),
                         sort_keys=True, indent=2))
        return 0
    totals = ledger.totals()
    print(f"{totals['queries']} queries across {ledger.fingerprints} "
          f"workload shapes ({totals['wall_seconds']:.3f}s wall, "
          f"{totals['cpu_seconds']:.3f}s cpu, "
          f"{totals['pages_read'] + totals['pages_written']} pages, "
          f"{totals['signature_comparisons']} signature comparisons)")
    for by in ("wall", "pages", "comparisons"):
        print(f"top by {by}:")
        for group in ledger.top(arguments.top, by=by):
            resources = group["resources"]
            pages = resources["pages_read"] + resources["pages_written"]
            print(f"  {group['fingerprint']}  {group['queries']:>5}q  "
                  f"{group['wall_seconds']:8.3f}s  pages={pages}  "
                  f"x={resources['signature_comparisons']}  "
                  f"{group['label']}")
    return 0


def _cmd_replay(arguments) -> int:
    """Deterministic re-execution: ``setjoins replay CAPTURE DB``."""
    import json
    import os

    from .database import SetJoinDatabase
    from .service.capture import read_capture, replay_capture

    records = read_capture(arguments.capture)
    sharded = (
        arguments.shards is not None
        or os.path.exists(arguments.database + ".shards.json")
    )
    opener = (
        SetJoinDatabase.open_sharded(
            arguments.database, shards=arguments.shards
        )
        if sharded else SetJoinDatabase.open(arguments.database)
    )
    with opener as db:
        report = replay_capture(
            records, db,
            workers=arguments.workers, backend=arguments.backend,
        )
    if arguments.json:
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    else:
        skipped = sum(report.skipped.values())
        print(f"replayed {report.replayed}/{report.total} records "
              f"({report.matched} matched, {skipped} skipped)")
        for reason, count in sorted(report.skipped.items()):
            print(f"  skipped {count}: {reason}")
        for entry in report.digest_mismatches:
            print(f"  DIGEST MISMATCH query {entry['query_id']} "
                  f"({entry['kind']}): recorded {entry['recorded']} "
                  f"replayed {entry['replayed']}")
        for entry in report.ledger_mismatches:
            print(f"  LEDGER MISMATCH query {entry['query_id']}: "
                  f"{entry['resource']} recorded={entry['recorded']} "
                  f"replayed={entry['replayed']}")
        drift = ", ".join(
            f"{name}{value:+d}"
            for name, value in sorted(report.resource_drift.items())
            if value
        )
        if drift:
            print(f"  physical drift (informational): {drift}")
        if report.clean:
            print("replay clean: every digest and deterministic resource "
                  "matched its recording")
    return 0 if report.clean else 1


def _cmd_ablate(arguments) -> int:
    """Component-importance ablations: ``setjoins ablate``."""
    import json
    import os

    from .ablate import (
        all_components,
        build_matrix,
        check_importance,
        execute_matrix,
        parse_importance_tsv,
        render_importance_tsv,
        score_runs,
    )

    if arguments.list:
        for component in all_components():
            variants = ", ".join(sorted(component.variants))
            print(f"{component.name:<20} {component.layer:<10} "
                  f"{component.invariance:<17} variants: {variants}")
            print(f"{'':<20} {component.description}")
        return 0

    full_matrix = not arguments.component
    specs = build_matrix(
        components=arguments.component or None,
        scale=arguments.scale, seed=arguments.seed,
    )
    if not arguments.json:
        print(f"running {len(specs)} configurations "
              f"(scale={arguments.scale}, seed={arguments.seed}, "
              f"repeats={arguments.repeats})", file=sys.stderr)

    def progress(row):
        if not arguments.json:
            print(f"  {row['name']:<30} x={row['x']:<8} y={row['y']:<6} "
                  f"{row['wall_seconds']:.3f}s  [{row['run_id']}]",
                  file=sys.stderr)

    result = execute_matrix(specs, repeats=arguments.repeats,
                            progress=progress)
    report = score_runs(result["runs"])
    reconciliation = result["reconciliation"]

    failures: list[str] = []
    if not reconciliation["exact"]:
        unattributed = {
            field: entry["unattributed"]
            for field, entry in reconciliation["counters"].items()
            if entry["unattributed"]
        }
        failures.append(
            f"ledger reconciliation is not exact: {unattributed} — some "
            "code path moved resource counters outside a run window"
        )
    if arguments.check:
        with open(arguments.check) as handle:
            committed = parse_importance_tsv(handle.read())
        failures.extend(
            check_importance(report, committed, full_matrix=full_matrix))
    else:
        # Answer invariants are enforced even without a committed report.
        for component in report["components"]:
            for violation in component["violations"]:
                failures.append(
                    f"{component['component']}: answer invariant violated: "
                    f"{violation}"
                )

    if arguments.out:
        os.makedirs(arguments.out, exist_ok=True)
        stem = ("ablation_importance" if full_matrix
                else "ablation_importance_partial")
        tsv_path = os.path.join(arguments.out, stem + ".tsv")
        with open(tsv_path, "w") as handle:
            handle.write(render_importance_tsv(report))
        jsonl_path = os.path.join(arguments.out, stem + ".jsonl")
        with open(jsonl_path, "w") as handle:
            handle.write(json.dumps(
                {"schema": report["schema"], "suite": report["suite"],
                 "scale": report["scale"], "seed": report["seed"],
                 "reconciliation": reconciliation},
                sort_keys=True) + "\n")
            for row in result["runs"]:
                handle.write(json.dumps(row, sort_keys=True) + "\n")
        if not arguments.json:
            print(f"report written to {tsv_path} (+ {jsonl_path})",
                  file=sys.stderr)

    if arguments.history:
        record = {
            "schema": f"ablation-{report['schema']}",
            "scale": report["scale"],
            "seed": report["seed"],
            "recorded_at": _WALL_CLOCK(),
            "runs": {
                row["name"]: {
                    "run_id": row["run_id"],
                    "x": row["x"],
                    "y": row["y"],
                    "wall_seconds": row["wall_seconds"],
                    "fingerprint": row["fingerprint"],
                }
                for row in result["runs"]
            },
        }
        with open(arguments.history, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    if arguments.json:
        print(json.dumps(
            {"report": report, "reconciliation": reconciliation,
             "failures": failures},
            sort_keys=True, indent=2))
    else:
        for component in report["components"]:
            print(f"{component['rank']:>2}. {component['component']:<20} "
                  f"importance_det={component['importance_det']:.4f} "
                  f"importance={component['importance']:.4f} "
                  f"({component['invariance']}, variant "
                  f"{component['variant']}, "
                  f"{'ok' if component['answer_ok'] else 'VIOLATED'})")
        print(f"reconciliation: "
              f"{'exact' if reconciliation['exact'] else 'NOT EXACT'}")
        if failures:
            print("TRIPWIRE FAILURES:")
            for failure in failures:
                print(f"  - {failure}")
    return 1 if failures else 0


def _cmd_stats(arguments) -> int:
    from .analysis.statistics import collect_statistics
    from .analysis.selectivity import expected_selectivity
    from .core.signatures import recommend_signature_bits

    relations = [
        load_relation_file(path, name) for path, name in
        zip(arguments.files, ("R", "S"))
    ]
    for relation in relations:
        print(collect_statistics(relation, sample_size=arguments.sample).describe())
    if len(relations) == 2 and all(len(r) for r in relations):
        lhs, rhs = relations
        theta_r = lhs.average_cardinality()
        theta_s = rhs.average_cardinality()
        domain = max(lhs.domain_bound(), rhs.domain_bound())
        print("join estimates:")
        if theta_r and theta_s:
            selectivity = expected_selectivity(
                round(min(theta_r, theta_s)), round(max(theta_r, theta_s)),
                max(domain, round(theta_s)),
            )
            print(f"  expected selectivity ≈ {selectivity:.3e} "
                  f"(~{selectivity * len(lhs) * len(rhs):.1f} result tuples)")
            bits = recommend_signature_bits(
                theta_r, theta_s, pairs_compared=len(lhs) * len(rhs)
            )
            print(f"  recommended signature width ≥ {bits} bits")
    return 0


def _cmd_demo(arguments) -> int:
    from .experiments.worked_example import run

    print(run().render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setjoins",
        description="Set containment joins (DCJ/PSJ/LSJ reproduction).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    join = commands.add_parser("join", help="run a set containment join")
    join.add_argument("r_file", help="subset-side sets, one per line")
    join.add_argument("s_file", help="superset-side sets, one per line")
    join.add_argument(
        "--algorithm", default="auto",
        choices=["auto", "dcj", "psj", "lsj"],
    )
    join.add_argument("--partitions", "-k", type=int, default=32)
    join.add_argument("--signature-bits", type=int, default=160)
    join.add_argument(
        "--workers", type=int, default=1,
        help="parallel join workers (default 1 = the serial operator)",
    )
    join.add_argument(
        "--parallel-backend", default="process",
        choices=["serial", "thread", "process"],
        help="execution backend when --workers > 1 (default process; "
        "falls back to serial where unavailable)",
    )
    join.add_argument(
        "--shards", type=int, default=1,
        help="distribute the relations over N in-memory database shards "
        "behind the dist coordinator (default 1 = single database); "
        "results and x/y accounting stay bit-identical",
    )
    join.add_argument(
        "--shard-fanout", default="thread", choices=["serial", "thread"],
        help="coordinator-level shard dispatch with --shards (default "
        "thread)",
    )
    join.add_argument(
        "--prune", default="partitions", choices=["partitions", "signature"],
        help="R-replication pruning with --shards: 'partitions' keeps "
        "x/y bit-identical; 'signature' also skips shards by signature-"
        "prefix digest (fewer shipped rows, x may shrink)",
    )
    join.add_argument(
        "--explain", action="store_true",
        help="print the predicted plan tree (analytical x/y/page/time "
        "annotations; for DCJ the α/β operator tree) without executing",
    )
    join.add_argument(
        "--analyze", action="store_true",
        help="execute the join and print the plan tree annotated with "
        "observed values and per-node relative prediction errors",
    )
    join.add_argument(
        "--drift", metavar="PATH", default=None,
        help="with --analyze: append the predicted-vs-observed drift "
        "record to PATH (JSON Lines); an existing history also makes "
        "auto selection drift-aware and adds the corrected column",
    )
    join.add_argument(
        "--recalibrate", action="store_true",
        help="with --analyze --drift: after the join, refit the time "
        "model from the drift history when its wall-time bias exceeds "
        "the threshold; refits are versioned into the model store and "
        "used for planning on subsequent runs",
    )
    join.add_argument(
        "--model-store", metavar="PATH", default=None,
        help="versioned store of recalibrated time models (default with "
        "--recalibrate: DRIFT.models.json); the freshest version plans "
        "the join",
    )
    join.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a span trace of the run to PATH (JSON Lines) and "
        "print a phase breakdown to stderr",
    )
    join.add_argument(
        "--trace-summary", action="store_true",
        help="print the flamegraph-style phase breakdown to stderr "
        "after the join (no trace file needed)",
    )
    join.add_argument(
        "--metrics", metavar="PATH", nargs="?", const="-", default=None,
        help="write Prometheus text-format metrics for the run to PATH "
        "(no PATH or '-': print to stdout)",
    )
    join.set_defaults(handler=_cmd_join)

    plan = commands.add_parser("plan", help="choose algorithm and k only")
    plan.add_argument("r_file")
    plan.add_argument("s_file")
    plan.set_defaults(handler=_cmd_plan)

    experiment = commands.add_parser(
        "experiment", help="regenerate a figure/table from the paper"
    )
    experiment.add_argument("id", help="experiment id (e.g. fig8)")
    experiment.add_argument("--scale", type=float, default=None)
    experiment.add_argument(
        "--plot", action="store_true",
        help="render an ASCII chart instead of the table",
    )
    experiment.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a span trace of the experiment to PATH (JSON Lines)",
    )
    experiment.set_defaults(handler=_cmd_experiment)

    generate = commands.add_parser(
        "generate", help="generate a synthetic set file"
    )
    generate.add_argument("out", help="output file path")
    generate.add_argument("--size", type=int, default=1000,
                          help="number of sets (default 1000)")
    generate.add_argument("--theta", type=int, default=20,
                          help="average set cardinality (default 20)")
    generate.add_argument("--domain", type=int, default=10_000,
                          help="element domain size (default 10000)")
    generate.add_argument(
        "--distribution", default="uniform",
        choices=["uniform", "zipf", "selfsimilar", "normal", "clustered"],
        help="element-value distribution",
    )
    generate.add_argument(
        "--cardinality", default="uniform",
        choices=["constant", "uniform", "normal", "zipf", "bimodal"],
        help="set-cardinality distribution",
    )
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(handler=_cmd_generate)

    database = commands.add_parser(
        "db", help="manage a persistent database of set relations"
    )
    database.add_argument("database", help="database file path")
    database.add_argument(
        "action",
        choices=["list", "load", "drop", "explain", "join", "verify",
                 "stats", "reshard"],
    )
    database.add_argument("args", nargs="*", help="action arguments")
    database.add_argument(
        "--shards", type=int, default=None,
        help="open (or create) the database as N shards behind the dist "
        "coordinator; an existing FILE.shards.json layout is detected "
        "automatically, so --shards is only needed on first creation",
    )
    database.add_argument(
        "--serve", action="store_true",
        help="expose /metrics and /healthz over HTTP while (and after) "
        "the action runs; Ctrl-C to stop",
    )
    database.add_argument("--host", "--bind", dest="host",
                          default="127.0.0.1",
                          help="bind interface for --serve (default "
                          "loopback; 0.0.0.0 = all interfaces)")
    database.add_argument("--port", type=int, default=9464,
                          help="bind port for --serve (0 = ephemeral)")
    database.add_argument("--token", default=None,
                          help="require 'Authorization: Bearer TOKEN' on "
                          "/metrics (/healthz stays open)")
    database.set_defaults(handler=_cmd_db)

    serve = commands.add_parser(
        "serve",
        help="serve process metrics over HTTP, or (with --service) the "
        "full query service",
    )
    serve.add_argument("--host", "--bind", dest="host", default="127.0.0.1",
                       help="bind interface (default loopback; 0.0.0.0 = "
                       "all interfaces)")
    serve.add_argument("--port", type=int, default=9464,
                       help="bind port (default 9464; 0 = ephemeral)")
    serve.add_argument("--token", default=None,
                       help="require 'Authorization: Bearer TOKEN' on "
                       "/metrics (/healthz stays open)")
    serve.add_argument("--service", metavar="DATABASE", default=None,
                       help="serve the query service over this database "
                       "file (POST /join, /probe; GET /readyz)")
    serve.add_argument("--workers", type=int, default=2,
                       help="parallel workers per join (default 2)")
    serve.add_argument("--backend", default="thread",
                       choices=("serial", "thread", "process"),
                       help="preferred execution backend; the circuit "
                       "breaker degrades it when it keeps failing")
    serve.add_argument("--shards", type=int, default=None,
                       help="with --service: open the database as N "
                       "shards behind the dist coordinator")
    serve.add_argument("--plan-cache-size", type=int, default=0,
                       help="cache up to N optimizer plans keyed on "
                       "relation-statistics fingerprints (default 0 = "
                       "replan every join)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="admission queue depth; beyond this, queries "
                       "are shed with HTTP 429 (default 64)")
    serve.add_argument("--deadline", type=float, default=None,
                       help="default per-query deadline in seconds "
                       "(default: none)")
    serve.add_argument("--drift", metavar="JSONL", default=None,
                       help="record per-join drift to this JSONL file "
                       "(rotated/compacted on startup)")
    serve.add_argument("--recalibrate-every", type=int, default=None,
                       help="with --drift and --model-store: attempt a "
                       "model refit every N joins")
    serve.add_argument("--model-store", metavar="JSON", default=None,
                       help="versioned time-model store for the "
                       "recalibration loop")
    serve.add_argument("--flight-recorder", metavar="N", type=int,
                       default=None,
                       help="with --service: keep the last N finished "
                       "queries (timeline, plan, span tree) queryable at "
                       "GET /debug/queries and /debug/query/<id>")
    serve.add_argument("--postmortems", metavar="DIR", default=None,
                       help="with --service: dump a postmortem JSON into "
                       "DIR for every failed or objective-breaching query "
                       "(implies --flight-recorder 128)")
    serve.add_argument("--slo-join", metavar="SECONDS", type=float,
                       default=None,
                       help="with --service: latency objective for join "
                       "queries; outcomes feed setjoin_slo_join_* burn-rate "
                       "gauges on /metrics")
    serve.add_argument("--slo-probe", metavar="SECONDS", type=float,
                       default=None,
                       help="with --service: latency objective for probe "
                       "queries")
    serve.add_argument("--profile-hz", metavar="HZ", type=float,
                       default=None,
                       help="with --service: run the stack-sampling "
                       "profiler at HZ and expose GET /debug/profile")
    serve.add_argument("--trace", metavar="JSONL", default=None,
                       help="append per-query span traces to this JSONL "
                       "file")
    serve.add_argument("--capture", metavar="JSONL", default=None,
                       help="with --service: append one fingerprinted "
                       "workload record per finished query (resolved "
                       "plan, resource ledger, answer digest) to this "
                       "JSONL file for 'setjoins replay'; rotated on "
                       "startup")
    serve.set_defaults(handler=_cmd_serve)

    workload = commands.add_parser(
        "workload",
        help="aggregate a workload capture into the heavy-hitter report",
    )
    workload.add_argument("capture", help="capture JSONL from serve --capture")
    workload.add_argument("--top", type=int, default=5,
                          help="fingerprints per ordering (default 5)")
    workload.add_argument("--json", action="store_true",
                          help="emit the full report as JSON")
    workload.set_defaults(handler=_cmd_workload)

    replay = commands.add_parser(
        "replay",
        help="re-execute a workload capture against a database and diff "
        "answers and deterministic resources per query",
    )
    replay.add_argument("capture", help="capture JSONL from serve --capture")
    replay.add_argument("database", help="database file path")
    replay.add_argument(
        "--shards", type=int, default=None,
        help="open the database as N shards behind the dist coordinator; "
        "an existing FILE.shards.json layout is detected automatically",
    )
    replay.add_argument("--workers", type=int, default=1,
                        help="parallel workers per replayed join "
                        "(default 1; answers must match regardless)")
    replay.add_argument("--backend", default="serial",
                        choices=("serial", "thread", "process"),
                        help="execution backend when --workers > 1")
    replay.add_argument("--json", action="store_true",
                        help="emit the replay report as JSON")
    replay.set_defaults(handler=_cmd_replay)

    ablate = commands.add_parser(
        "ablate",
        help="run the component-importance ablation matrix "
        "(baseline plus one component off per run)",
    )
    ablate.add_argument(
        "--component", action="append", metavar="NAME",
        help="ablate only this component (repeatable; default: full "
        "matrix of every registered component)",
    )
    ablate.add_argument("--list", action="store_true",
                        help="list registered components and exit")
    ablate.add_argument("--scale", type=float, default=1.0,
                        help="bench-suite size scale (default 1.0; must "
                        "match a committed report for --check)")
    ablate.add_argument("--seed", type=int, default=11,
                        help="bench-suite seed (default 11)")
    ablate.add_argument("--repeats", type=int, default=2,
                        help="executions per workload per run (default 2; "
                        ">= 2 makes the plan cache observable)")
    ablate.add_argument("--out", metavar="DIR", default="results",
                        help="write ablation_importance.tsv/.jsonl here "
                        "(default results/; '' disables)")
    ablate.add_argument("--check", metavar="TSV", default=None,
                        help="diff importance against this committed "
                        "report; exit 1 on rank collapse or "
                        "answer-exactness violation")
    ablate.add_argument("--history", metavar="PATH", default=None,
                        help="append one ablation row to this "
                        "BENCH_history.jsonl-style file")
    ablate.add_argument("--json", action="store_true",
                        help="emit the full report as JSON on stdout")
    ablate.set_defaults(handler=_cmd_ablate)

    stats = commands.add_parser("stats", help="summarize set files")
    stats.add_argument("files", nargs="+", help="one or two set files")
    stats.add_argument("--sample", type=int, default=None,
                       help="sample size for statistics (default: exact)")
    stats.set_defaults(handler=_cmd_stats)

    demo = commands.add_parser("demo", help="the Section 2 worked example")
    demo.set_defaults(handler=_cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    arguments = build_parser().parse_args(argv)
    try:
        return arguments.handler(arguments)
    except SetJoinError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that exited; not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
