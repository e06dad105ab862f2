"""The five workloads: set-up, one timed repeat, and the traced pass.

Each workload hands the program only materialized ``Relation``s generated
from the seed, checks every answer against :mod:`bench.oracle`, and calls
nothing below the program's public functions.  Sizes are the paper-scale
ones the issue fixed; ``scale`` exists only for ``run.py --smoke``.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

from repro.analysis.simulate import make_partitioner
from repro.analysis.timemodel import PAPER_TIME_MODEL
from repro.core.api import containment_join
from repro.core.operator import SetContainmentJoin, Testbed, compare_block
from repro.core.optimizer import choose_plan
from repro.core.partitioning import PartitionAssignment
from repro.core.signatures import DEFAULT_SIGNATURE_BITS, signatures_of
from repro.data.workloads import case_study, uniform_workload
from repro.database import SetJoinDatabase
from repro.dist.coordinator import ShardedDatabase
from repro.obs.registry import get_registry
from repro.obs.trace import Tracer
from repro.parallel.executor import resolve_backend
from repro.service import QueryService
from repro.storage.partition_store import PartitionStore

from bench import oracle
from bench.catalog import PER_LAYER, WORKLOADS
from bench.trace import Recorder

CLOCK = time.perf_counter
WARM_SCALE = 0.05
SHARDED_WARMUPS = 4
#: never fewer timed repeats than this, whatever ``--seconds`` says
MIN_JOIN_REPEATS = 5


@dataclass
class Op:
    """One timed, oracle-checked operation."""

    kind: str
    seconds: float
    ok: bool


def timed(kind: str, call, check) -> Op:
    started = CLOCK()
    try:
        answer = call()
    except Exception:  # a failed operation is a result, not a crash
        traceback.print_exc(file=sys.stderr)
        return Op(kind, CLOCK() - started, False)
    return Op(kind, CLOCK() - started, bool(check(answer)))


@dataclass
class State:
    """What set-up leaves behind for the timed and traced passes."""

    lhs: object
    rhs: object
    expected: set
    timings: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    closers: list = field(default_factory=list)

    @property
    def tuples(self) -> int:
        return len(self.lhs) + len(self.rhs)

    def check_pairs(self, answer) -> bool:
        return answer[0] == self.expected

    def close(self) -> None:
        while self.closers:
            self.closers.pop()()


def _scaled(size: int, scale: float) -> int:
    return max(16, int(size * scale))


def _uniform(r_size, s_size, theta_r, theta_s, domain, planted=0):
    def make(seed: int, scale: float):
        r, s = _scaled(r_size, scale), _scaled(s_size, scale)
        return uniform_workload(
            r, s, theta_r, theta_s, domain, seed=seed,
            planted_pairs=min(planted, r // 2),
        )
    return make


def _case_study(seed: int, scale: float):
    return case_study(scale=scale, seed=seed)


def _in_child(function, *args):
    """Call ``function`` in a forked child and return its result, so that
    the oracle's working memory (more than the join's own, at paper scale)
    is not charged to the process whose peak RSS is a metric.  Set-up is
    single-threaded, which is what makes a bare fork safe here."""
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=lambda: sender.send(function(*args)))
    child.start()
    sender.close()
    try:
        return receiver.recv()  # drained before the join, or it can block
    finally:
        child.join()


def _generate(make, seed: int, scale: float) -> State:
    started = CLOCK()
    lhs, rhs = make(seed, scale).materialize()
    generate_s = CLOCK() - started
    expected = _in_child(oracle.containment_pairs, lhs, rhs)
    state = State(lhs, rhs, expected)
    state.timings["data.generate_s"] = generate_s
    state.info.update(
        r_size=len(lhs), s_size=len(rhs), result_pairs=len(expected),
        pair_digest=oracle.pair_digest(expected),
    )
    return state


def user_bytes(*relations) -> int:
    """Size of the live user rows in a format of the benchmark's own (an
    8-byte tid and 4 bytes per element), so a change to the program's
    record layout moves the numerator of a bytes ratio and not its base."""
    return sum(8 + 4 * len(row.elements) for rel in relations for row in rel)


def _counter(name: str) -> float:
    metric = get_registry().get(name)
    return metric.value if metric is not None else 0


# ----------------------------------------------------------------------
# The traced pass's building blocks
# ----------------------------------------------------------------------

def build_partitioner(lhs, rhs, algorithm: str, num_partitions):
    """The partitioner ``containment_join`` builds for these arguments."""
    if algorithm == "auto":
        plan = choose_plan(lhs, rhs, PAPER_TIME_MODEL)
        return plan.build_partitioner(seed=0)
    return make_partitioner(
        algorithm, num_partitions,
        max(lhs.average_cardinality(), 1.0),
        max(rhs.average_cardinality(), 1.0), 0,
    )


def unrolled_join(rec: Recorder, repeat, lhs, rhs, algorithm, num_partitions,
                  workers: int = 1, backend: str = "serial"):
    """``containment_join`` → ``run_disk_join`` spelled out step by step so
    each layer call gets a span; must stay answer- and x/y-identical to
    the one-call API (the traced pass checks)."""
    with rec.span("core.api.containment_join", repeat):
        with rec.span("core.optimizer.plan"):
            partitioner = build_partitioner(lhs, rhs, algorithm, num_partitions)
        with Testbed() as testbed:
            with rec.span("storage.relation_store.bulk_load"):
                testbed.load(lhs, rhs)
            join = SetContainmentJoin(
                testbed, partitioner, workers=workers, parallel_backend=backend
            )
            with rec.span("core.operator.run") as run:
                pairs, metrics = join.run()
        rec.reported(run, [
            ("core.operator.partition_phase", metrics.partitioning.seconds),
            ("core.operator.join_phase", metrics.joining.seconds),
            ("core.operator.verify_phase", metrics.verification.seconds),
        ])
    return pairs, metrics


def operator_layers(rec: Recorder, metrics) -> dict:
    """Per-layer numbers read off the unrolled joins and their metrics."""
    return {
        "core.optimizer.plan_s": rec.median("core.optimizer.plan"),
        "core.optimizer.chosen_k": metrics.num_partitions,
        "core.operator.partition_phase_s":
            rec.median("core.operator.partition_phase"),
        "core.operator.join_phase_s": rec.median("core.operator.join_phase"),
        "core.operator.verify_phase_s":
            rec.median("core.operator.verify_phase"),
        "core.operator.run_other_s": rec.self_median("core.operator.run"),
        "storage.buffer.hit_rate": metrics.buffer_hit_rate,
        "storage.buffer.misses": metrics.buffer_misses,
        "storage.pager.page_reads": metrics.total_page_reads,
        "storage.pager.page_writes": metrics.total_page_writes,
        "bench.traced_join_wall_s": rec.median("core.api.containment_join"),
    }


def _seconds(span: dict) -> float:
    return span["end"] - span["start"]


def layer_profile(rec: Recorder, state: State, partitioner) -> dict:
    """Stand-alone timings of each layer's public functions on the
    workload's own inputs, one call each."""
    lhs, rhs = state.lhs, state.rhs
    bits = DEFAULT_SIGNATURE_BITS
    out = {}
    with rec.span("bench.standalone", "standalone"):
        rows = list(lhs) + list(rhs)
        with rec.span("core.signatures.signatures_of") as span:
            signatures = signatures_of((row.elements for row in rows), bits)
        out["core.signatures.sign_s"] = _seconds(span)
        out["core.signatures.tuples"] = len(rows)
        r_sig = {row.tid: sig for row, sig in zip(lhs, signatures)}
        s_sig = {row.tid: sig for row, sig in zip(rhs, signatures[len(lhs):])}

        with rec.span("core.partitioning.assign") as span:
            assignment = PartitionAssignment.compute(partitioner, lhs, rhs)
        out["core.partitioning.assign_s"] = _seconds(span)
        out["core.partitioning.replicated_signatures"] = (
            assignment.replicated_signatures)
        out["core.partitioning.replication_factor"] = (
            assignment.replication_factor)
        out["core.partitioning.comparison_factor"] = (
            assignment.comparison_factor)

        blocks = [
            ([(r_sig[tid], tid) for tid in r_part],
             [(s_sig[tid], tid) for tid in s_part])
            for r_part, s_part in zip(assignment.r_partitions,
                                      assignment.s_partitions)
            if r_part and s_part
        ]
        candidates: set[tuple[int, int]] = set()

        def add(r_tid, s_tid):
            candidates.add((r_tid, s_tid))

        with rec.span("core.operator.compare_block") as span:
            comparisons = sum(
                compare_block("numpy", bits, r_block, [s_block], add)
                for r_block, s_block in blocks
            )
        del blocks
        out["core.operator.compare_s"] = _seconds(span)
        out["core.operator.signature_comparisons"] = comparisons
        out["core.operator.comparisons_per_s"] = comparisons / _seconds(span)
        out["core.operator.candidates"] = len(candidates)
        out["core.operator.filter_precision"] = (
            len(state.expected) / len(candidates) if candidates else 1.0)

        with Testbed() as testbed:
            with rec.span("storage.relation_store.bulk_load"):
                testbed.load(lhs, rhs)
            stores = (testbed.relation_r, testbed.relation_s)
            with rec.span("storage.relation_store.scan") as span:
                for store in stores:
                    for __ in store.scan():
                        pass
            out["storage.relation_store.scan_s"] = _seconds(span)
            tids = (sorted({r for r, __ in candidates}),
                    sorted({s for __, s in candidates}))
            with rec.span("storage.relation_store.fetch_many") as span:
                for store, wanted in zip(stores, tids):
                    store.fetch_many(wanted)
            out["storage.relation_store.fetch_many_s"] = _seconds(span)
            out["storage.relation_store.fetches"] = sum(map(len, tids))

            # Append in relation order, as the operator's partition
            # phase does, so portion flushes interleave the same way.
            routed = []
            for relation, parts, sig in ((lhs, assignment.r_partitions, r_sig),
                                         (rhs, assignment.s_partitions, s_sig)):
                targets: dict[int, list[int]] = {}
                for index, part in enumerate(parts):
                    for tid in part:
                        targets.setdefault(tid, []).append(index)
                routed.append([
                    (index, sig[row.tid], row.tid)
                    for row in relation for index in targets.get(row.tid, ())
                ])
            partition_stores = []
            with rec.span("storage.partition_store.append") as span:
                for entries in routed:
                    store = PartitionStore(
                        testbed.pool, signature_bytes=(bits + 7) // 8,
                        num_partitions=assignment.num_partitions,
                    )
                    for entry in entries:
                        store.append(*entry)
                    store.seal()
                    partition_stores.append(store)
                testbed.pool.flush_all()
            out["storage.partition_store.append_s"] = _seconds(span)
            with rec.span("storage.partition_store.scan") as span:
                for store in partition_stores:
                    for index in range(assignment.num_partitions):
                        for __ in store.scan_partition_batches(index):
                            pass
            out["storage.partition_store.scan_s"] = _seconds(span)
            out["storage.partition_store.entries"] = sum(
                store.total_entries for store in partition_stores)
            for store in partition_stores:
                store.drop()
    out["storage.relation_store.bulk_load_s"] = rec.median(
        "storage.relation_store.bulk_load")
    return out


def tracer_tax(rec: Recorder, join, plain_seconds: float) -> dict:
    """The same join with the program's own tracer on, against it off."""
    tracer = Tracer()
    with rec.span("obs.traced_join", "standalone") as span:
        join(tracer=tracer)
    return {
        "obs.tracer_tax_ratio": _seconds(span) / plain_seconds,
        "obs.tracer_spans": len(tracer.export()),
    }


def per_layer(*parts: dict) -> dict:
    """Every per-layer metric by name; 0 for a layer the workload never
    enters."""
    merged = dict.fromkeys(PER_LAYER, 0.0)
    for part in parts:
        merged.update(part)
    return merged


# ----------------------------------------------------------------------
# One-shot joins: case_study, compare_heavy, dense_verify
# ----------------------------------------------------------------------

class JoinWorkload:
    """``containment_join`` over freshly generated relations."""

    min_repeats = MIN_JOIN_REPEATS
    traced_repeats = 2

    def __init__(self, name: str, make, algorithm: str, num_partitions=None,
                 setup_repeats: int = 1):
        self.name = name
        #: ``setup_s`` is the median of this many set-ups; more than one
        #: only where a set-up is short enough (< 1 s) to be noisy and
        #: cheap enough to repeat inside the driver's total-time cap.
        self.setup_repeats = setup_repeats
        self.why = WORKLOADS[name]
        self.make = make
        self.algorithm = algorithm
        self.num_partitions = num_partitions

    def join(self, lhs, rhs, **extra):
        return containment_join(
            lhs, rhs, algorithm=self.algorithm,
            num_partitions=self.num_partitions, **extra,
        )

    def build(self, seed: int, scale: float, tmp: str) -> State:
        state = _generate(self.make, seed, scale)
        # Warm-up: the same call on a 1/20-size input loads every lazily
        # imported module, so that cost lands in ``setup_s``.  No full-size
        # join is spent on it: the first one is within noise of the rest.
        warm = self.make(seed, min(scale, WARM_SCALE)).materialize()
        self.join(*warm)
        state.info.update(warmups_discarded=1, algorithm=self.algorithm)
        return state

    def repeat(self, state: State) -> list[Op]:
        op = timed("join", lambda: self.join(state.lhs, state.rhs),
                   state.check_pairs)
        return [op]

    def trace(self, state: State, rec: Recorder,
              repeats: int) -> tuple[dict, bool]:
        lhs, rhs = state.lhs, state.rhs
        with rec.span("bench.untraced_join", "reference") as plain:
            pairs, reference = self.join(lhs, rhs)
        correct = pairs == state.expected
        for repeat in range(repeats):
            pairs, metrics = unrolled_join(
                rec, repeat, lhs, rhs, self.algorithm, self.num_partitions)
            correct &= pairs == state.expected and _same_work(metrics, reference)
        state.info.update(_exact_counters(metrics))
        partitioner = build_partitioner(
            lhs, rhs, self.algorithm, self.num_partitions)
        profile = layer_profile(rec, state, partitioner)
        correct &= (profile["core.operator.signature_comparisons"]
                    == metrics.signature_comparisons)
        layers = operator_layers(rec, metrics)
        return per_layer(
            state.timings, layers, profile,
            tracer_tax(rec, lambda **kw: self.join(lhs, rhs, **kw),
                       _seconds(plain)),
            {"bench.trace_overhead_ratio":
                layers["bench.traced_join_wall_s"] / _seconds(plain)},
        ), correct


def _same_work(metrics, reference) -> bool:
    return (
        metrics.signature_comparisons == reference.signature_comparisons
        and metrics.replicated_signatures == reference.replicated_signatures
        and metrics.algorithm == reference.algorithm
        and metrics.num_partitions == reference.num_partitions
    )


def _exact_counters(metrics) -> dict:
    """Counters that must repeat bit for bit on one seed."""
    return {
        "chosen_algorithm": metrics.algorithm,
        "chosen_k": metrics.num_partitions,
        "signature_comparisons": metrics.signature_comparisons,
        "replicated_signatures": metrics.replicated_signatures,
        "candidates": metrics.candidates,
        "page_reads": metrics.total_page_reads,
        "page_writes": metrics.total_page_writes,
    }


# ----------------------------------------------------------------------
# fanout: the process backend and the sharded database
# ----------------------------------------------------------------------

class FanoutWorkload:
    name = "fanout"
    algorithm = "DCJ"
    num_partitions = 16
    min_repeats = MIN_JOIN_REPEATS
    traced_repeats = 2
    setup_repeats = 1

    def __init__(self):
        self.why = WORKLOADS[self.name]
        self.make = _uniform(8000, 8000, 6, 12, 10_000, planted=50)

    def process_join(self, state: State, **extra):
        return containment_join(
            state.lhs, state.rhs, self.algorithm, self.num_partitions,
            workers=2, backend="process", **extra,
        )

    def sharded_join(self, db):
        return db.join("R", "S", self.algorithm, self.num_partitions)

    def _sharded(self, state: State, shards: int):
        db = ShardedDatabase.open(None, shards=shards)
        state.closers.append(db.close)
        db.create_relation("R", state.lhs)
        db.create_relation("S", state.rhs)
        return db

    def build(self, seed: int, scale: float, tmp: str) -> State:
        state = _generate(self.make, seed, scale)
        started = CLOCK()
        state.db = self._sharded(state, 2)
        state.timings["dist.create_s"] = CLOCK() - started
        # A long-lived sharded database answers joins 1-3 about twice as
        # fast as every later one; users of a resident database see the
        # later figure, so the fast ones are spent here.
        for __ in range(SHARDED_WARMUPS):
            self.sharded_join(state.db)
        backend, fallback = resolve_backend("process", 2)
        state.info.update(
            warmups_discarded=SHARDED_WARMUPS,
            backend_used=backend.name, backend_fallback=fallback,
            algorithm=self.algorithm,
        )
        return state

    def repeat(self, state: State) -> list[Op]:
        return [
            timed("join", lambda: self.process_join(state), state.check_pairs),
            timed("sharded_join", lambda: self.sharded_join(state.db),
                  state.check_pairs),
        ]

    def trace(self, state: State, rec: Recorder,
              repeats: int) -> tuple[dict, bool]:
        lhs, rhs = state.lhs, state.rhs
        with rec.span("bench.untraced_join", "reference") as plain:
            pairs, reference = self.process_join(state)
        correct = pairs == state.expected
        for repeat in range(repeats):
            pairs, metrics = unrolled_join(
                rec, repeat, lhs, rhs, self.algorithm, self.num_partitions,
                workers=2, backend="process")
            correct &= pairs == state.expected and _same_work(metrics, reference)
            with rec.span("dist.coordinator.join", repeat) as span:
                pairs, sharded = self.sharded_join(state.db)
            rec.reported(span, [
                ("dist.placement", sharded.partitioning.seconds),
                ("dist.fanout", sharded.joining.seconds),
                ("dist.merge", sharded.verification.seconds),
            ])
            correct &= pairs == state.expected and _same_work(sharded, reference)
        state.info.update(_exact_counters(metrics))

        with rec.span("parallel.serial_join", "standalone") as serial:
            pairs, __ = containment_join(
                lhs, rhs, self.algorithm, self.num_partitions)
        correct &= pairs == state.expected
        with rec.span("parallel.thread_join", "standalone") as thread:
            pairs, __ = containment_join(
                lhs, rhs, self.algorithm, self.num_partitions,
                workers=2, backend="thread")
        correct &= pairs == state.expected
        process_wall = rec.median("core.api.containment_join")

        with rec.span("dist.create_one_shard", "standalone"):
            one_shard = self._sharded(state, 1)
        for repeat in range(repeats + 1):
            with rec.span("dist.one_shard_join", "standalone"):
                pairs, __ = self.sharded_join(one_shard)
            correct &= pairs == state.expected
        sharded_wall = rec.median("dist.coordinator.join")
        one_shard_wall = rec.median("dist.one_shard_join")

        partitioner = build_partitioner(
            lhs, rhs, self.algorithm, self.num_partitions)
        layers = operator_layers(rec, metrics)
        return per_layer(
            state.timings, layers, layer_profile(rec, state, partitioner),
            tracer_tax(rec, lambda **kw: self.process_join(state, **kw),
                       _seconds(plain)),
            {
                "parallel.serial_join_wall_s": _seconds(serial),
                "parallel.speedup_vs_serial": _seconds(serial) / process_wall,
                "parallel.thread_speedup_vs_serial":
                    _seconds(serial) / _seconds(thread),
                "parallel.join_phase_s": layers["core.operator.join_phase_s"],
                "parallel.worker_busy_s":
                    sum(shard.seconds for shard in metrics.shard_joining),
                "dist.sharded_join_wall_s": sharded_wall,
                "dist.one_shard_join_wall_s": one_shard_wall,
                "dist.speedup_vs_one_shard": one_shard_wall / sharded_wall,
                "dist.replication_factor":
                    state.db.last_placement.replication_factor,
                "dist.join_phase_s": rec.median("dist.fanout"),
                "bench.trace_overhead_ratio": process_wall / _seconds(plain),
            },
        ), correct


# ----------------------------------------------------------------------
# served_mix: the query service over a durable file database
# ----------------------------------------------------------------------

#: one repeat: 20 operations in the 85 / 5 / 10 % mix, shuffled
WINDOW = ("probe",) * 17 + ("join",) * 1 + ("churn",) * 2
PROBE_SETS = 50
CHURN_ROWS = 49
SERVED_DOMAIN = 150


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


class ServedMixWorkload:
    name = "served_mix"
    min_repeats = 15
    traced_repeats = 15  # 255 probes: the fewest with 10 beyond p95
    setup_repeats = 3

    def __init__(self):
        self.why = WORKLOADS[self.name]
        self.make = _uniform(800, 1200, 4, 24, SERVED_DOMAIN)

    def _service(self, state: State, **options):
        service = QueryService(state.db, **options).start()
        state.closers.append(service.stop)
        return service

    def build(self, seed: int, scale: float, tmp: str) -> State:
        state = _generate(self.make, seed, scale)
        rng = random.Random(seed)
        hosts = [sorted(row.elements) for row in state.rhs]
        probes = set()
        while len(probes) < PROBE_SETS:
            probes.add(tuple(sorted(rng.sample(rng.choice(hosts), 3))))
        state.probes = sorted(probes)
        state.probe_answers = [
            oracle.probe_tids(state.rhs, probe) for probe in state.probes
        ]
        state.rng = rng
        state.seed = seed
        state.churned = 0

        directory = tempfile.mkdtemp(dir=tmp)
        state.closers.append(lambda: shutil.rmtree(directory))
        state.path = os.path.join(directory, "served.db")
        state.db = SetJoinDatabase.open(state.path)
        state.closers.append(state.db.close)
        state.db.create_relation("R", state.lhs)
        state.db.create_relation("S", state.rhs)
        state.service = self._service(
            state, plan_cache_size=16, flight_recorder=128)
        warm = [self._op(state, state.service, kind)
                for kind in ("join", "probe", "churn", "join", "probe")]
        state.info.update(
            warmups_discarded=len(warm), workers=state.service.workers,
            backend=state.service.backend, clients=1, loop="closed",
        )
        return state

    def _op(self, state: State, service, kind: str) -> Op:
        rng = state.rng
        if kind == "probe":
            index = rng.randrange(len(state.probes))
            return timed(
                "probe", lambda: service.probe("S", state.probes[index]),
                lambda tids: tids == state.probe_answers[index],
            )
        if kind == "join":
            return timed("join", lambda: service.join("R", "S"),
                         state.check_pairs)
        state.churned += 1
        name = f"churn_{state.churned}"
        rows = [(tid, frozenset(rng.sample(range(SERVED_DOMAIN), 3)))
                for tid in range(CHURN_ROWS)]

        def churn():
            created = service.create_relation(name, rows)
            service.drop_relation(name)
            return created

        op = timed("churn", churn, lambda created: created == CHURN_ROWS)
        op.ok &= name not in state.db.relation_names()
        return op

    @staticmethod
    def _kinds(state: State) -> list[str]:
        kinds = list(WINDOW)
        state.rng.shuffle(kinds)
        return kinds

    def _window(self, state: State, service) -> list[Op]:
        return [self._op(state, service, kind) for kind in self._kinds(state)]

    def repeat(self, state: State) -> list[Op]:
        return self._window(state, state.service)

    def _replay(self, state: State, rec: Recorder, service, label,
                repeats: int) -> list[Op]:
        """The same seeded operations against ``service``, one span each."""
        state.rng = random.Random(state.seed + 1)
        ops = []
        for repeat in range(repeats):
            for kind in self._kinds(state):
                with rec.span(f"{label}.{kind}", repeat):
                    ops.append(self._op(state, service, kind))
        return ops

    def trace(self, state: State, rec: Recorder,
              repeats: int) -> tuple[dict, bool]:
        db = state.db
        retries = _counter("setjoin_service_retries_total")
        shed = _counter("setjoin_service_shed_total")
        ops = self._replay(state, rec, state.service, "service", repeats)
        cache = state.service.stats()["plan_cache"]
        out = {
            "service.plan_cache_hit_rate":
                cache["hits"] / max(1, cache["hits"] + cache["misses"]),
            "service.retried_queries":
                _counter("setjoin_service_retries_total") - retries,
            "service.shed": _counter("setjoin_service_shed_total") - shed,
        }
        state.service.stop()

        plain = self._service(state, plan_cache_size=16,
                              flight_recorder=None, ledger=False)
        plain_ops = self._replay(state, rec, plain, "service_plain", repeats)
        plain.stop()
        correct = all(op.ok for op in ops + plain_ops)
        busy = sum(op.seconds for op in ops)
        out["obs.service_tax_ratio"] = (
            busy / sum(op.seconds for op in plain_ops))

        def latencies(kind):
            return [op.seconds * 1e3 for op in ops if op.kind == kind]

        out["service.probe_latency_p50_ms"] = statistics.median(
            latencies("probe"))
        out["service.probe_latency_p95_ms"] = percentile(
            latencies("probe"), 0.95)
        out["service.join_latency_p50_ms"] = statistics.median(
            latencies("join"))
        out["service.churn_latency_p50_ms"] = statistics.median(
            latencies("churn"))

        # The floor under the served latencies: the same calls straight
        # on the database, with the service's workers and backend.
        workers, backend = state.service.workers, state.service.backend
        for __ in range(5):
            with rec.span("database.join", "standalone"):
                pairs, metrics = db.join(
                    "R", "S", workers=workers, backend=backend)
            correct &= pairs == state.expected
            with rec.span("database.serial_join", "standalone"):
                db.join("R", "S")
            with rec.span("database.process_join", "standalone"):
                db.join("R", "S", workers=workers, backend="process")
            with rec.span("database.plan", "standalone"):
                db.plan("R", "S")
        for probe, answer in zip(state.probes, state.probe_answers):
            with rec.span("database.probe", "standalone"):
                tids = db.probe("S", probe)
            correct &= tids == answer
        state.info.update(_exact_counters(metrics))
        join_s = rec.median("database.join")
        serial_s = rec.median("database.serial_join")
        out.update({
            "database.join_s": join_s,
            "database.probe_s": rec.median("database.probe"),
            "database.plan_s": rec.median("database.plan"),
            "service.join_overhead_ms":
                out["service.join_latency_p50_ms"] - join_s * 1e3,
            "service.probe_overhead_ms":
                out["service.probe_latency_p50_ms"]
                - rec.median("database.probe") * 1e3,
            "parallel.serial_join_wall_s": serial_s,
            "parallel.thread_speedup_vs_serial": serial_s / join_s,
            "parallel.speedup_vs_serial":
                serial_s / rec.median("database.process_join"),
            "parallel.join_phase_s": metrics.joining.seconds,
            "parallel.worker_busy_s":
                sum(shard.seconds for shard in metrics.shard_joining),
            "core.optimizer.chosen_k": metrics.num_partitions,
            "core.operator.partition_phase_s": metrics.partitioning.seconds,
            "core.operator.join_phase_s": metrics.joining.seconds,
            "core.operator.verify_phase_s": metrics.verification.seconds,
            "core.operator.run_other_s":
                rec.durations("database.join")[-1] - metrics.total_seconds,
            "storage.buffer.hit_rate": metrics.buffer_hit_rate,
            "storage.buffer.misses": metrics.buffer_misses,
            "storage.pager.page_reads": metrics.total_page_reads,
            "storage.pager.page_writes": metrics.total_page_writes,
            "bench.traced_join_wall_s": join_s,
            # Each span wraps one timed operation, so what the spans add
            # is their length over the operations' own.
            "bench.trace_overhead_ratio": sum(
                sum(rec.durations(f"service.{kind}")) for kind in set(WINDOW)
            ) / busy,
        })
        with rec.span("core.optimizer.plan", "standalone") as span:
            partitioner = build_partitioner(state.lhs, state.rhs, "auto", None)
        out["core.optimizer.plan_s"] = _seconds(span)
        tracer = Tracer()
        with rec.span("obs.traced_join", "standalone") as span:
            db.join("R", "S", workers=workers, backend=backend, tracer=tracer)
        out["obs.tracer_tax_ratio"] = _seconds(span) / join_s
        out["obs.tracer_spans"] = len(tracer.export())

        base = user_bytes(state.lhs, state.rhs)
        out.update(self._wal_layers(state, rec, base))
        db.pool.flush_all()
        stored = os.path.getsize(state.path) + os.path.getsize(
            state.path + ".wal")
        out["storage.stored_bytes_per_user_byte"] = stored / base
        state.info.update(stored_bytes=stored, user_bytes=base)
        return per_layer(
            state.timings, layer_profile(rec, state, partitioner), out,
        ), correct

    def _wal_layers(self, state: State, rec: Recorder, base: int) -> dict:
        out = {}
        directory = os.path.dirname(state.path)
        for durable, label in ((True, "durable"), (False, "nondurable")):
            logged = _counter("setjoin_wal_bytes_total")
            path = os.path.join(directory, f"{label}.db")
            with rec.span(f"storage.wal.{label}_create", "standalone") as span:
                with SetJoinDatabase.open(path, durable=durable) as db:
                    db.create_relation("R", state.lhs)
                    db.create_relation("S", state.rhs)
            out[f"storage.wal.{label}_create_s"] = _seconds(span)
            if durable:
                out["storage.wal.bytes_per_user_byte"] = (
                    _counter("setjoin_wal_bytes_total") - logged) / base
        return out


def all_workloads() -> dict:
    workloads = [
        JoinWorkload("case_study", _case_study, "auto"),
        JoinWorkload("compare_heavy",
                     _uniform(30_000, 30_000, 6, 12, 10_000, planted=50),
                     "DCJ", 4),
        JoinWorkload("dense_verify", _uniform(6000, 9000, 4, 24, 150),
                     "DCJ", 16, setup_repeats=3),
        FanoutWorkload(),
        ServedMixWorkload(),
    ]
    return {workload.name: workload for workload in workloads}
