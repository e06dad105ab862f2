"""The long-lived query service over :class:`~repro.database.SetJoinDatabase`.

Every join so far was a one-shot CLI/library call; :class:`QueryService`
is the resident process the ROADMAP asks for.  Architecture:

* **Admission** — a bounded :class:`~repro.service.queue.AdmissionQueue`
  in front of a single *execution lane* thread.  The storage substrate
  (buffer pool, temporary partition pages) is single-writer, so queries
  execute one at a time; intra-query parallelism comes from the
  partition-parallel engine (``workers``/``backend``).  A full queue
  sheds with :class:`~repro.errors.AdmissionRejected` — overload
  degrades into fast 429s, never unbounded memory.
* **Deadlines** — per-query, measured from admission.  The remaining
  budget at execution time propagates into the parallel engine as the
  shard timeout, and bounds the retry loop's backoff sleeps; an expired
  deadline surfaces as :class:`~repro.errors.DeadlineExceeded` whether
  it elapsed queued or running.
* **Retries + circuit breaker** — transient shard failures (worker
  death, timeout, injected I/O fault) are retried with exponential
  backoff + jitter (:mod:`.retry`); repeated failures trip a per-backend
  circuit breaker that degrades ``process`` → ``thread`` → ``serial``.
  The join kernel is deterministic, so a retried success is bit-identical
  to an untroubled run.
* **Observability** — ``setjoin_service_*`` gauges/counters/histograms
  in the process registry, and **one record per query**: the
  request-scoped :class:`~repro.obs.flight.QueryContext` minted with
  the ``query_id`` collects the admission → attempt → retry timeline;
  the lane plans once (the plan both runs and is recorded), bills once
  (one registry window per query, :class:`~repro.obs.ledger.
  LedgerWindow`), describes what ran once, and hands the finished
  record to each configured consumer — the
  :class:`~repro.obs.slo.SLOTracker` burn-rate gauges, the workload
  ledger (``GET /debug/workload``), the capture sink that ``repro
  replay`` re-executes (:mod:`repro.service.capture`) and the
  :class:`~repro.obs.flight.FlightRecorder` (postmortems on failure or
  latency-objective breach).  Span traces, per-join drift records (the
  PR-5 closed calibration loop, with periodic recalibration under
  sustained traffic) and capture lines are three
  :class:`~repro.obs.rotation.JsonlSink` histories, rotated on startup.
  All observation-only, so results stay bit-identical with every layer
  on or off.
* **Shutdown** — ``stop()`` (or SIGTERM via
  :meth:`install_signal_handlers`) moves READY → DRAINING (``/readyz``
  flips, new submits are rejected), finishes or rejects the queue, then
  closes the database — the WAL-safe half of crash safety; the
  SIGKILL half is WAL recovery on next open, which the chaos harness
  exercises.
"""

from __future__ import annotations

import threading
import time

from ..core.operator import check_join_options
from ..database import SetJoinDatabase
from ..errors import (
    AdmissionRejected,
    ConfigurationError,
    DeadlineExceeded,
    ServiceError,
    ServiceUnavailable,
    SetJoinError,
)
from ..parallel.executor import Execution, check_timeout
from .queue import AdmissionQueue, Query, QueryTicket
from .retry import BackendLadder, RetryPolicy, run_with_retries

__all__ = ["ServiceState", "PlanCache", "QueryService"]

#: Latency buckets for the per-query histogram (seconds).
_LATENCY_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0
)

#: Consecutive failures that open a backend's circuit breaker, and the
#: seconds it stays open before a half-open trial.
BREAKER_THRESHOLD = 3
BREAKER_COOLDOWN = 5.0

#: Size at which each JSONL history rotates: span traces, drift records,
#: capture lines.
TRACE_MAX_BYTES = 4 * 1024 * 1024
DRIFT_MAX_BYTES = 4 * 1024 * 1024
CAPTURE_MAX_BYTES = 16 * 1024 * 1024


class ServiceState:
    STARTING = "starting"
    READY = "ready"
    DRAINING = "draining"
    STOPPED = "stopped"

    _ORDER = {STARTING: 0, READY: 1, DRAINING: 2, STOPPED: 3}


class PlanCache:
    """LRU cache of optimizer plans keyed on a statistics fingerprint.

    :meth:`~repro.database.JoinPlanner.plan` keys it on ``(r, s,
    algorithm, k, |R|, θ_R, |S|, θ_S, c1, c2, c3)`` — everything the
    optimizer's decision depends on — so a cached plan is only ever
    reused while it would be re-derived identically: relation churn
    changes the statistics (and is invalidated eagerly by name anyway),
    and a model refit/rollback changes the coefficients (the service
    also clears the cache then).  Entries hold the full
    :class:`~repro.core.optimizer.JoinPlan`, so EXPLAIN-grade detail
    stays available for drift prediction without replanning.
    """

    def __init__(self, size: int, registry=None):
        from collections import OrderedDict

        from ..obs.registry import get_registry

        if size < 1:
            raise ConfigurationError(
                f"plan cache size must be >= 1, got {size}"
            )
        self.size = size
        self._entries: "OrderedDict[tuple, object]" = OrderedDict()
        self._lock = threading.Lock()
        reg = registry if registry is not None else get_registry()
        self.hits = reg.counter(
            "setjoin_service_plan_cache_hits_total",
            "Joins planned from the statistics-fingerprint plan cache",
        )
        self.misses = reg.counter(
            "setjoin_service_plan_cache_misses_total",
            "Joins that had to run the optimizer (cache miss)",
        )

    def lookup(self, key: tuple):
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self.misses.inc()
                return None
            self._entries.move_to_end(key)
            self.hits.inc()
            return plan

    def store(self, key: tuple, plan) -> None:
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.size:
                self._entries.popitem(last=False)

    def invalidate(self, *names: str) -> int:
        """Drop every cached plan involving any of ``names`` (churn)."""
        targets = set(names)
        with self._lock:
            stale = [
                key for key in self._entries
                if key[0] in targets or key[1] in targets
            ]
            for key in stale:
                del self._entries[key]
            return len(stale)

    def clear(self) -> None:
        """Drop everything (model refit/rollback: all plans are stale)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class QueryService:
    """Admission-controlled, deadline-aware join service.

    ``database`` is a path (the service opens and owns it — closed on
    :meth:`stop`) or an open :class:`SetJoinDatabase` (borrowed — the
    caller keeps ownership).  ``workers``/``backend`` configure the
    partition-parallel engine per join; ``backend`` is the *preferred*
    rung of the degradation ladder.  ``chaos`` is an optional
    :class:`~repro.service.chaos.ChaosInjector` (or any shard-hook
    callable) threaded into every parallel join.

    ``clock``/``sleep`` are injectable for deterministic tests; the
    clock must be monotonic.
    """

    def __init__(
        self,
        database: "SetJoinDatabase | str | None",
        *,
        workers: int = 2,
        backend: str = "thread",
        shards: int | None = None,
        plan_cache_size: int = 0,
        queue_depth: int = 64,
        default_deadline: float | None = None,
        retry_policy: RetryPolicy | None = None,
        chaos=None,
        drift_path: str | None = None,
        recalibrate_every: int | None = None,
        model_store=None,
        trace_path: str | None = None,
        flight_recorder=None,
        postmortem_dir: str | None = None,
        slo=None,
        ledger: bool = True,
        capture_path: str | None = None,
        clock=time.monotonic,
        sleep=time.sleep,
        cpu_clock=time.process_time,
        registry=None,
    ):
        from ..obs.registry import get_registry

        check_join_options(workers=workers, parallel_backend=backend)
        check_timeout(default_deadline, "default_deadline")
        Execution(hook=chaos)  # a hook no attempt could run with fails here
        if database is None or isinstance(database, str):
            if shards is not None:
                self.db = SetJoinDatabase.open_sharded(
                    database, shards=shards, model_store=model_store
                )
            else:
                self.db = SetJoinDatabase.open(
                    database, model_store=model_store
                )
            self._owns_db = True
        else:
            # An open SetJoinDatabase or ShardedDatabase is borrowed —
            # the caller keeps ownership and its existing shard layout.
            if shards is not None:
                raise ConfigurationError(
                    "shards= only applies when the service opens the "
                    "database itself; the borrowed instance already has "
                    "its layout"
                )
            self.db = database
            self._owns_db = False
        self.workers = workers
        self.backend = backend
        self.default_deadline = default_deadline
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.chaos = chaos
        self.drift_path = drift_path
        self.recalibrate_every = recalibrate_every
        self._clock = clock
        self._sleep = sleep
        self._registry = (
            registry if registry is not None else get_registry()
        )
        self._queue = AdmissionQueue(queue_depth, registry=self._registry)
        self._ladder = BackendLadder(
            backend, failure_threshold=BREAKER_THRESHOLD,
            cooldown=BREAKER_COOLDOWN, clock=clock, registry=self._registry,
        )
        self._plan_cache = (
            PlanCache(plan_cache_size, registry=self._registry)
            if plan_cache_size else None
        )

        # Request-scoped observability: flight recorder and SLO tracker.
        # Both observation-only — neither feeds back into execution, so
        # results are bit-identical on or off.
        from ..obs.flight import FlightRecorder
        from ..obs.slo import SLOTracker

        if flight_recorder is None and postmortem_dir is not None:
            flight_recorder = 128
        if isinstance(flight_recorder, int):
            self._flight = FlightRecorder(
                capacity=flight_recorder, postmortem_dir=postmortem_dir,
            )
        else:
            self._flight = flight_recorder  # instance or None
        if slo is not None and not isinstance(slo, SLOTracker):
            slo = SLOTracker(slo, registry=self._registry)
        self._slo = slo

        # The three JSONL histories — span traces, drift records, capture
        # lines (what ``repro replay`` re-executes) — rotated and opened
        # by start(); and the workload ledger aggregating per-query bills.
        from ..obs.drift import drift_line
        from ..obs.rotation import JsonlSink
        from .capture import capture_line

        def sink(path, **options):
            return JsonlSink(path, **options) if path is not None else None

        self._trace = sink(trace_path, max_bytes=TRACE_MAX_BYTES)
        self._drift = sink(
            drift_path, max_bytes=DRIFT_MAX_BYTES, parse=drift_line
        )
        self._capture = sink(
            capture_path, max_bytes=CAPTURE_MAX_BYTES, keep=5000,
            parse=capture_line,
        )
        self._cpu_clock = cpu_clock
        self._ledger = None
        if ledger:
            from ..obs.ledger import WorkloadLedger

            self._ledger = WorkloadLedger(registry=self._registry)
        #: the context of the query the lane is executing right now —
        #: written only by the lane; breaker/chaos callbacks (which fire
        #: on the lane thread, inside an attempt) route events here.
        self._current_context = None
        self._ladder.set_transition_listener(self._breaker_event)
        if self.chaos is not None and hasattr(self.chaos, "on_event"):
            self.chaos.on_event = self._chaos_event

        self._state = ServiceState.STARTING
        self._state_lock = threading.Lock()
        self._stopped = threading.Event()
        self._lane: threading.Thread | None = None
        self._joins_since_recalibration = 0

        reg = self._registry
        self._state_gauge = reg.gauge(
            "setjoin_service_state",
            "Service lifecycle (0 starting, 1 ready, 2 draining, 3 stopped)",
        )
        self._inflight = reg.gauge(
            "setjoin_service_inflight", "Queries currently executing"
        )
        self._completed = reg.counter(
            "setjoin_service_completed_total", "Queries answered successfully"
        )
        self._failed = reg.counter(
            "setjoin_service_failed_total",
            "Queries rejected with a typed error after admission",
        )
        self._deadline_counter = reg.counter(
            "setjoin_service_deadline_exceeded_total",
            "Queries that ran out of deadline (queued or executing)",
        )
        self._retries = reg.counter(
            "setjoin_service_retries_total",
            "Transient shard failures retried by the service",
        )
        self._latency = reg.histogram(
            "setjoin_service_query_seconds",
            "Admission-to-answer latency per query",
            buckets=_LATENCY_BUCKETS,
        )
        self._set_state(ServiceState.STARTING)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _set_state(self, state: str) -> None:
        self._state = state
        self._state_gauge.set(ServiceState._ORDER[state])

    @property
    def state(self) -> str:
        return self._state

    @property
    def ready(self) -> bool:
        return self._state == ServiceState.READY

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def start(self) -> "QueryService":
        """Rotate operational state, spawn the execution lane, go READY."""
        with self._state_lock:
            if self._state != ServiceState.STARTING:
                raise ConfigurationError(
                    f"cannot start a service in state {self._state!r}"
                )
            if self._drift is not None:
                self.drift_rotation = self._drift.open_()
            if self._trace is not None:
                self.trace_rotation = self._trace.open_()
            if self._capture is not None:
                self.capture_rotation = self._capture.open_()
            if self._ledger is not None:
                # Baseline *before* the lane can run anything, so the
                # reconciliation window covers every attributed query.
                self._ledger.begin()
            self._lane = threading.Thread(
                target=self._run_lane, name="setjoin-service-lane", daemon=True
            )
            self._lane.start()
            self._set_state(ServiceState.READY)
        return self

    def stop(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Graceful shutdown: DRAINING → (drain or reject) → STOPPED.

        With ``drain=True`` every already-admitted query is answered
        before the lane exits; with ``drain=False`` queued queries are
        rejected immediately with :class:`ServiceUnavailable` (the one
        in flight still finishes — the lane is never killed mid-write,
        which is what keeps shutdown WAL-safe).  Idempotent.
        """
        with self._state_lock:
            if self._state in (ServiceState.STOPPED,):
                return
            self._set_state(ServiceState.DRAINING)
        if drain:
            self._queue.close()
        else:
            for ticket in self._queue.drain_now():
                self._failed.inc()
                ticket.reject(ServiceUnavailable(
                    "service is draining; query rejected before execution"
                ))
        if self._lane is not None:
            self._lane.join(timeout)
            if self._lane.is_alive():
                raise ServiceError(
                    f"execution lane still busy after {timeout}s drain"
                )
        for sink in (self._trace, self._drift, self._capture):
            if sink is not None:
                sink.close()
        with self._state_lock:
            if self._owns_db:
                self.db.close()
            self._set_state(ServiceState.STOPPED)
        self._stopped.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the service reaches STOPPED (the CLI's main loop:
        a SIGTERM-triggered drain wakes this up)."""
        return self._stopped.wait(timeout)

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a graceful drain (CLI entry point)."""
        import signal

        def _handle(signum, frame):  # noqa: ARG001 (signal API)
            self.stop(drain=True)

        signal.signal(signal.SIGTERM, _handle)
        signal.signal(signal.SIGINT, _handle)

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self, kind: str, deadline: float | None = None, **params
    ) -> QueryTicket:
        """Admit a query; returns its ticket or raises a typed error.

        ``deadline`` is seconds from now (defaults to the service's
        ``default_deadline``; ``None`` = unbounded).  Raises
        :class:`ServiceUnavailable` unless READY and
        :class:`AdmissionRejected` when the queue sheds.
        """
        if self._state != ServiceState.READY:
            raise ServiceUnavailable(
                f"service is {self._state}, not accepting queries"
            )
        if deadline is None:
            deadline = self.default_deadline
        check_timeout(deadline, "deadline")
        now = self._clock()
        query = Query(
            kind=kind,
            params=params,
            deadline=None if deadline is None else now + deadline,
            admitted_at=now,
        )
        ticket = QueryTicket(query)
        if not self._queue.offer(ticket):
            if self._queue.closed:
                raise ServiceUnavailable("service is draining")
            raise AdmissionRejected(
                f"admission queue full ({self._queue.depth} queued); "
                "back off and retry"
            )
        query.context.event("admitted", queue_depth=len(self._queue))
        return ticket

    # Synchronous conveniences (the load generator uses submit directly).

    def join(self, r_name: str, s_name: str, deadline: float | None = None,
             timeout: float | None = None, **params):
        """Admit a full join and wait for ``(pairs, metrics)``."""
        ticket = self.submit("join", deadline=deadline, r=r_name, s=s_name,
                             **params)
        return ticket.result(timeout)

    def probe(self, name: str, elements, deadline: float | None = None,
              timeout: float | None = None) -> list[int]:
        """Admit a point containment probe and wait for matching tids."""
        ticket = self.submit("probe", deadline=deadline, name=name,
                             elements=list(elements))
        return ticket.result(timeout)

    def create_relation(self, name: str, rows,
                        timeout: float | None = None) -> int:
        """Catalog churn: WAL-transactional create through the lane."""
        ticket = self.submit("create", name=name, rows=rows)
        return ticket.result(timeout)

    def drop_relation(self, name: str, timeout: float | None = None) -> None:
        ticket = self.submit("drop", name=name)
        return ticket.result(timeout)

    def reshard(self, shards: int, timeout: float | None = None) -> int:
        """Resize a sharded database through the lane; returns the new
        shard count (requires a :class:`~repro.dist.ShardedDatabase`)."""
        ticket = self.submit("reshard", shards=shards)
        return ticket.result(timeout)

    # ------------------------------------------------------------------
    # The execution lane
    # ------------------------------------------------------------------

    def _run_lane(self) -> None:
        from ..obs.ledger import LedgerWindow

        # With nothing reading the finished record the lane skips the
        # registry window and the describe step altogether.
        recorded = not (
            self._ledger is None and self._capture is None
            and self._flight is None
        )
        while True:
            ticket = self._queue.take(timeout=0.05)
            if ticket is None:
                if self._queue.closed:
                    return
                continue
            self._inflight.set(1)
            query = ticket.query
            self._current_context = query.context
            # The query's one registry window: everything it moves
            # between here and the settle step — planning included — is
            # *its* bill and its flight entry's ``registry_delta``.
            # Exactness rests on the single-lane design — no other query
            # (and no other db-touching code path) runs concurrently,
            # and process-worker/shard deltas merge before the join call
            # returns.
            window = (
                LedgerWindow(self._registry, self._clock, self._cpu_clock)
                if recorded else None
            )
            status = "ok"
            result = None
            error: BaseException | None = None
            try:
                result = self._execute(ticket)
            except SetJoinError as err:
                if isinstance(err, DeadlineExceeded):
                    self._deadline_counter.inc()
                    status = "deadline_exceeded"
                else:
                    status = "error"
                error = err
            except BaseException as err:  # noqa: BLE001 — lane must survive
                status = "internal_error"
                error = ServiceError(
                    f"internal error executing query "
                    f"{ticket.query_id}: {err!r}"
                )
            # Settle observability *before* resolving the ticket, so a
            # caller woken by result() immediately finds the flight
            # entry; the finally clause guarantees the ticket settles
            # even if an observation-only layer misbehaves.
            try:
                self._current_context = None
                self._settle(query, status, result, error, window)
            except BaseException:  # noqa: BLE001 — observation-only
                pass
            finally:
                if status == "ok":
                    self._completed.inc()
                    ticket.resolve(result)
                else:
                    self._failed.inc()
                    ticket.reject(error)
                self._inflight.set(0)

    def _settle(self, query: Query, status: str, result,
                error: "BaseException | None", window) -> None:
        """Finish the query's record, then hand it — unchanged — to each
        configured consumer: SLO tracker, workload ledger, capture sink,
        flight recorder."""
        record = query.context
        record.finish(status, self._clock() - query.admitted_at, error)
        self._latency.observe(max(record.seconds, 0.0))
        objective = None
        if self._slo is not None:
            self._slo.observe(query.kind, record.seconds, ok=status == "ok")
            objective = self._slo.latency_objective(query.kind)
        if window is None:
            return
        record.ledger = window.close()
        record.registry_delta = window.condensed()
        self._describe(query, result)
        if self._ledger is not None:
            self._ledger.attribute(record)
        if self._capture is not None:
            from .capture import answer_digest

            # Hashing is linear in the answer, so only a capture —
            # whose replay compares digests — pays for it.
            if status == "ok":
                record.digest = answer_digest(query.kind, result)
            self._capture.append(record.to_dict(evidence=False))
        if self._flight is not None:
            self._flight.record(record, objective=objective)

    def _describe(self, query: Query, result) -> None:
        """Describe what ran, reading the answering run's metrics once:
        the replayable parameters, the plan of record's sizes, and the
        stable workload fingerprint.

        Joins describe what actually executed — resolved algorithm/k and
        signature bits rather than ``"auto"``, so replay re-executes the
        same physical plan however statistics or models have drifted
        since — and key on it together with relation sizes, optimizer
        densities and shard layout; generated relation names collapse
        their digit runs so churn traffic shares one shape.
        """
        from ..obs.ledger import normalize_workload_name, query_fingerprint

        record = query.context
        params = query.params
        kind = query.kind
        replay: dict = {}
        detail: dict = {}
        if kind == "join":
            replay = {
                "r": params["r"],
                "s": params["s"],
                "algorithm": params.get("algorithm", "auto"),
                "num_partitions": params.get("num_partitions"),
                "seed": params.get("seed", 0),
                "signature_bits": params.get("signature_bits"),
            }
            detail = {
                "r": normalize_workload_name(params["r"]),
                "s": normalize_workload_name(params["s"]),
            }
            plan = record.plan if record.plan is not None else {}
            if record.status == "ok":
                __, metrics = result
                replay.update(
                    algorithm=metrics.algorithm,
                    num_partitions=metrics.num_partitions,
                    signature_bits=metrics.signature_bits,
                )
                ran = {
                    "signature_bits": metrics.signature_bits,
                    "r_size": metrics.r_size,
                    "s_size": metrics.s_size,
                }
                plan.update(ran)
                detail.update(ran, k=metrics.num_partitions)
            detail["algorithm"] = replay["algorithm"]
            for density in ("theta_r", "theta_s"):
                if density in plan:
                    detail[density] = plan[density]
            if hasattr(self.db, "shard_ids"):
                detail["shards"] = len(self.db.shard_ids)
        elif kind == "probe":
            elements = list(params.get("elements", []))
            replay = {"name": params["name"], "elements": elements}
            detail = {
                "name": normalize_workload_name(params["name"]),
                "elements": len(elements),
            }
        elif kind in ("create", "drop"):
            replay = {"name": params["name"]}
            detail = {"name": normalize_workload_name(params["name"])}
        elif kind == "reshard":
            replay = detail = {"shards": params.get("shards")}
        fingerprint = query_fingerprint(kind, detail)
        record.fingerprint = fingerprint.key
        record.label = fingerprint.label
        record.params = {
            key: value for key, value in replay.items() if value is not None
        }

    def _remaining(self, query: Query) -> float | None:
        """Seconds of deadline left; raises when already spent."""
        if query.deadline is None:
            return None
        remaining = query.deadline - self._clock()
        if remaining <= 0:
            raise DeadlineExceeded(
                f"query {query.query_id} ({query.kind}) deadline elapsed "
                f"{-remaining:.3f}s ago"
            )
        return remaining

    def _execute(self, ticket: QueryTicket):
        query = ticket.query
        self._remaining(query)  # expired while queued → typed rejection
        if query.kind == "join":
            return self._execute_join(ticket)
        if query.kind == "probe":
            return self.db.probe(
                query.params["name"], query.params["elements"]
            )
        if query.kind == "create":
            result = self.db.create_relation(
                query.params["name"], query.params["rows"]
            )
            if self._plan_cache is not None:
                self._plan_cache.invalidate(query.params["name"])
            return result
        if query.kind == "drop":
            result = self.db.drop_relation(query.params["name"])
            if self._plan_cache is not None:
                self._plan_cache.invalidate(query.params["name"])
            return result
        if query.kind == "reshard":
            if not hasattr(self.db, "reshard"):
                raise ConfigurationError(
                    "reshard requires a sharded database (open the "
                    "service with shards=N)"
                )
            self.db.reshard(query.params["shards"])
            return len(self.db.shard_ids)
        raise ConfigurationError(f"unknown query kind {query.kind!r}")

    def _execute_join(self, ticket: QueryTicket):
        query = ticket.query
        record = query.context
        params = query.params
        r_name, s_name = params["r"], params["s"]
        algorithm = params.get("algorithm", "auto")
        request = {
            key: value for key, value in params.items()
            if key in ("signature_bits", "seed")
        }
        flight_on = self._flight is not None
        plan = None
        if algorithm == "auto":
            # Plan once — through the cache when enabled.  The plan is
            # recorded, predicts for the drift record, and builds the
            # partitioner every attempt runs, so the database never
            # samples statistics a second time to re-derive it.
            plan = self.db.plan(r_name, s_name, "auto", params.get("num_partitions"),
                                cache=self._plan_cache)
            record.plan = {
                "algorithm": plan.algorithm,
                "k": plan.k,
                "predicted_seconds": plan.predicted_seconds,
                # Optimizer densities feed the workload fingerprint;
                # rounded so sampling jitter does not split shapes.
                "theta_r": round(plan.theta_r, 3),
                "theta_s": round(plan.theta_s, 3),
            }
            if flight_on:
                record.plan["explain"] = str(
                    plan.explain(**request)
                ).splitlines()
        else:
            # A named algorithm skips the optimizer; the request itself
            # is the plan of record.
            request.update(
                algorithm=algorithm,
                num_partitions=params.get("num_partitions"),
            )
            record.plan = {
                "algorithm": algorithm,
                "k": request["num_partitions"],
                "requested": True,
            }

        from ..obs.trace import NULL_TRACER, Tracer

        tracer = NULL_TRACER
        if self._trace is not None or flight_on:
            # Tagged with the query id so every span — including the
            # ones workers and shards ship back — stitches to this
            # query in a mixed-traffic JSONL file.
            tracer = Tracer(tags={"query_id": query.query_id})

        def attempt(backend: str):
            # The query's remaining budget is each shard's timeout.
            execution = Execution(self._remaining(query), self.chaos)
            record.attempts += 1
            number = record.attempts
            record.event("attempt", number=number, backend=backend)
            if plan is not None:
                # A fresh partitioner per attempt, never a shared
                # instance: PSJ consumes an RNG, and a retry must replay
                # the first attempt bit for bit.
                request["partitioner"] = plan.build_partitioner(
                    seed=params.get("seed", 0)
                )
            with tracer.span(
                "attempt", number=number, backend=backend
            ) as span:
                try:
                    result = self.db.join(
                        r_name, s_name,
                        workers=self.workers,
                        backend=backend if self.workers > 1 else "serial",
                        execution=execution,
                        tracer=tracer,
                        **request,
                    )
                except BaseException as error:
                    span.set(error=type(error).__name__)
                    record.event(
                        "attempt.failed", number=number, backend=backend,
                        error=type(error).__name__,
                    )
                    raise
            record.event("attempt.ok", number=number, backend=backend)
            return result

        def on_retry(attempt_number: int, error: BaseException) -> None:
            self._retries.inc()
            record.event(
                "retry", after_attempt=attempt_number,
                error=type(error).__name__,
            )

        root = tracer.start("query", kind=query.kind, r=r_name, s=s_name)
        try:
            pairs, metrics = run_with_retries(
                attempt, self.retry_policy, ladder=self._ladder,
                deadline=query.deadline, clock=self._clock, sleep=self._sleep,
                on_retry=on_retry,
            )
        except BaseException as error:
            root.set(error=type(error).__name__)
            raise
        finally:
            # The trace must survive the failure path — a postmortem
            # without its span tree is half a postmortem.
            tracer.finish(root)
            record.spans = tracer.export()
            if self._trace is not None:
                self._trace.append(*record.spans)
        if plan is not None and self._drift is not None:
            self._record_drift(plan.prediction(), metrics)
        return pairs, metrics

    # ------------------------------------------------------------------
    # The closed loop under traffic
    # ------------------------------------------------------------------

    def _record_drift(self, prediction: dict, metrics) -> None:
        from ..obs.drift import compute_drift, record_drift

        record = compute_drift(prediction, metrics)
        record_drift(record, registry=self._registry)
        self._drift.append(record.to_dict())
        if self._current_context is not None:
            self._current_context.drift = record.to_dict()
        if self.recalibrate_every:
            self._joins_since_recalibration += 1
            if self._joins_since_recalibration >= self.recalibrate_every:
                self._joins_since_recalibration = 0
                self._maybe_recalibrate()

    def _maybe_recalibrate(self) -> None:
        from ..obs.adaptive import Recalibrator

        store = self.db.model_store
        if store is None:
            return
        recalibrator = Recalibrator(store=store, registry=self._registry)
        # Judge the active refit on its *post-fit* drift first; a
        # reverted model skips refitting this cycle, so one bad window
        # cannot be reinstated in the same breath it was rolled back.
        rollback = recalibrator.maybe_rollback(self.drift_path)
        if rollback.reverted:
            self._model_changed()
            return
        outcome = recalibrator.maybe_recalibrate(self.drift_path)
        if outcome.refit:
            self._model_changed()

    def _model_changed(self) -> None:
        self.db.refresh_model()
        if self._plan_cache is not None:
            self._plan_cache.clear()

    # ------------------------------------------------------------------
    # Event routing into the active query's timeline
    # ------------------------------------------------------------------

    def _breaker_event(self, backend: str, old: str, new: str) -> None:
        context = self._current_context
        if context is not None:
            context.event("breaker", backend=backend, old=old, new=new)

    def _chaos_event(self, kind: str, shard: "int | None") -> None:
        context = self._current_context
        if context is not None:
            context.event("chaos", fault=kind, shard=shard)

    # ------------------------------------------------------------------
    # Debug surfaces (HTTP GET /debug/*)
    # ------------------------------------------------------------------

    def debug_queries(self) -> "list[dict] | None":
        """Flight-recorder ring summaries, or ``None`` when disabled."""
        if self._flight is None:
            return None
        return self._flight.entries()

    def debug_query(self, query_id: int) -> "dict | None":
        """Full evidence (or postmortem) for one query id."""
        if self._flight is None:
            return None
        return self._flight.get(query_id)

    def debug_workload(self, top: int = 5) -> "dict | None":
        """Workload-ledger report (totals, reconciliation, heavy
        hitters), or ``None`` when the ledger is disabled."""
        if self._ledger is None:
            return None
        report = self._ledger.report(top=top)
        if self._capture is not None:
            report["capture"] = {"path": self._capture.path}
        return report

    def debug_slo(self) -> "dict | None":
        """SLO window states and burn rates, or ``None`` when no
        tracker is configured."""
        if self._slo is None:
            return None
        return self._slo.report()

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Service-level snapshot for ``/readyz`` and the CLI."""
        snapshot = {
            "state": self._state,
            "queue_depth": len(self._queue),
            "workers": self.workers,
            "preferred_backend": self.backend,
            "effective_backend": self._ladder.select(),
            "breakers": {
                name: breaker.state
                for name, breaker in self._ladder.breakers.items()
            },
        }
        if hasattr(self.db, "shard_ids"):
            snapshot["shards"] = len(self.db.shard_ids)
        if self._plan_cache is not None:
            snapshot["plan_cache"] = {
                "entries": len(self._plan_cache),
                "capacity": self._plan_cache.size,
                "hits": self._plan_cache.hits.value,
                "misses": self._plan_cache.misses.value,
            }
        if self._flight is not None:
            snapshot["flight_recorder"] = {
                "capacity": self._flight.capacity,
                "recorded": len(self._flight.entries()),
                "postmortems": len(self._flight.postmortems()),
            }
        if self._slo is not None:
            snapshot["slo"] = self._slo.report()
        if self._ledger is not None:
            snapshot["workload"] = {
                "queries": self._ledger.queries,
                "fingerprints": self._ledger.fingerprints,
            }
        if self._capture is not None:
            snapshot["capture"] = {"path": self._capture.path}
        return snapshot
