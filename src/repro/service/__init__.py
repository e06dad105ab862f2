"""Long-lived query service over the set-containment join engine.

The paper's algorithm ran as a one-shot experiment; this package makes
it a resident, failure-tolerant process:

* :mod:`.queue` — bounded admission with explicit shedding;
* :mod:`.core` — :class:`QueryService`: the execution lane, per-query
  deadlines propagated into shard timeouts, drift recording, graceful
  drain-then-close shutdown;
* :mod:`.retry` — exponential backoff with jitter plus a per-backend
  circuit breaker degrading ``process`` → ``thread`` → ``serial``;
* :mod:`.http` — stdlib HTTP front end (``/join``, ``/probe``,
  ``/readyz``, plus the inherited ``/metrics``/``/healthz``);
* :mod:`.chaos` — seeded fault injection at the shard hook (worker
  kills, stragglers, I/O faults);
* :mod:`.loadgen` — a paced mixed-workload harness that checks every
  answer against a pre-chaos oracle;
* :mod:`.capture` — workload capture (one line per query: the
  :class:`~repro.obs.flight.QueryContext` record with its resolved
  plan, resource ledger and answer digest) and deterministic replay
  (``repro replay``).

See ``docs/service.md`` for the operational model.
"""

from .capture import (
    ReplayReport,
    answer_digest,
    read_capture,
    replay_capture,
)
from .chaos import ChaosConfig, ChaosInjector
from .core import QueryService, ServiceState
from .http import ServiceServer
from .loadgen import LoadGenerator, LoadReport, WorkloadMix
from .queue import AdmissionQueue, Query, QueryTicket
from .retry import (
    DEGRADATION_ORDER,
    BackendLadder,
    CircuitBreaker,
    RetryPolicy,
    run_with_retries,
)

__all__ = [
    "QueryService",
    "ServiceState",
    "ServiceServer",
    "AdmissionQueue",
    "Query",
    "QueryTicket",
    "RetryPolicy",
    "CircuitBreaker",
    "BackendLadder",
    "DEGRADATION_ORDER",
    "run_with_retries",
    "ChaosConfig",
    "ChaosInjector",
    "LoadGenerator",
    "LoadReport",
    "WorkloadMix",
    "ReplayReport",
    "answer_digest",
    "read_capture",
    "replay_capture",
]
