"""Bounded admission queue with explicit shedding.

The service's back-pressure point: a fixed-depth FIFO in front of the
execution lane.  When the queue is full, :meth:`AdmissionQueue.offer`
*rejects* instead of blocking — the caller sheds the query with a typed
:class:`~repro.errors.AdmissionRejected` — so overload degrades into
fast, observable 429s rather than unbounded memory growth and silent
latency collapse.

Queue depth, total admissions and total sheds are published to the
metrics registry (``setjoin_service_queue_depth``,
``setjoin_service_admitted_total``, ``setjoin_service_shed_total``) at
offer/take time, so a scrape always sees the live depth.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import dataclass, field

from ..errors import ConfigurationError, ServiceError

__all__ = ["Query", "QueryTicket", "AdmissionQueue"]

_query_ids = itertools.count(1)


@dataclass
class Query:
    """One admitted unit of work.

    ``kind`` is one of ``"join"``, ``"probe"``, ``"create"``, ``"drop"``
    (the workload mix the load generator replays); ``params`` carries
    the kind-specific arguments; ``deadline`` is an *absolute* monotonic
    timestamp (``None`` = no deadline).

    ``context`` is the request-scoped :class:`~repro.obs.flight.
    QueryContext` minted together with the ``query_id`` — always
    present.  It is *the* record of the query: the lane fills in what
    ran, the outcome and the bill, then hands it unchanged to the SLO
    tracker, workload ledger, capture sink and flight recorder.
    """

    kind: str
    params: dict = field(default_factory=dict)
    deadline: float | None = None
    admitted_at: float = 0.0
    query_id: int = field(default_factory=lambda: next(_query_ids))
    context: object = None

    def __post_init__(self):
        if self.context is None:
            from ..obs.flight import QueryContext

            self.context = QueryContext(self.query_id, self.kind)


class QueryTicket:
    """The caller's handle on an admitted query.

    A tiny future: the execution lane resolves or rejects it exactly
    once; :meth:`result` blocks until then.  Rejection always carries a
    typed :class:`~repro.errors.SetJoinError` subclass — the "every
    admitted query is answered or cleanly rejected" invariant lives
    here.
    """

    def __init__(self, query: Query):
        self.query = query
        self._done = threading.Event()
        self._result = None
        self._error: BaseException | None = None

    @property
    def query_id(self) -> int:
        return self.query.query_id

    @property
    def attempts(self) -> int:
        return self.query.context.attempts

    def done(self) -> bool:
        return self._done.is_set()

    @property
    def error(self) -> BaseException | None:
        return self._error

    def resolve(self, result) -> None:
        self._result = result
        self._done.set()

    def reject(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    def result(self, timeout: float | None = None):
        """Block for the outcome; re-raises the typed rejection error."""
        if not self._done.wait(timeout):
            raise ServiceError(
                f"query {self.query_id} still pending after {timeout}s wait"
            )
        if self._error is not None:
            raise self._error
        return self._result


class AdmissionQueue:
    """Fixed-depth FIFO; full means shed, closed means reject.

    All state transitions happen under one condition variable so
    concurrent producers (HTTP handler threads) and the single consumer
    (the execution lane) stay consistent.
    """

    def __init__(self, depth: int, registry=None):
        if depth < 1:
            raise ConfigurationError(f"queue depth must be >= 1, got {depth}")
        from ..obs.registry import get_registry

        self.depth = depth
        self._items: deque[QueryTicket] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        registry = registry if registry is not None else get_registry()
        self._depth_gauge = registry.gauge(
            "setjoin_service_queue_depth",
            "Queries waiting in the service admission queue",
        )
        self._admitted = registry.counter(
            "setjoin_service_admitted_total",
            "Queries admitted past the admission queue",
        )
        self._shed = registry.counter(
            "setjoin_service_shed_total",
            "Queries shed because the admission queue was full",
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def offer(self, ticket: QueryTicket) -> bool:
        """Admit a ticket; ``False`` means the queue was full (shed).

        A closed queue also returns ``False`` — the caller distinguishes
        the two via :meth:`closed` and raises the right typed error.
        """
        with self._lock:
            if self._closed or len(self._items) >= self.depth:
                if not self._closed:
                    self._shed.inc()
                return False
            self._items.append(ticket)
            self._admitted.inc()
            self._depth_gauge.set(len(self._items))
            self._not_empty.notify()
            return True

    def take(self, timeout: float | None = None) -> QueryTicket | None:
        """Pop the oldest ticket, waiting up to ``timeout``; ``None`` on
        timeout or when the queue is closed and drained."""
        with self._not_empty:
            if not self._items:
                if self._closed:
                    return None
                self._not_empty.wait(timeout)
            if not self._items:
                return None
            ticket = self._items.popleft()
            self._depth_gauge.set(len(self._items))
            return ticket

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def close(self) -> None:
        """Stop admitting; queued tickets remain takeable (drain)."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    def drain_now(self) -> list[QueryTicket]:
        """Close and empty the queue, returning the abandoned tickets so
        the caller can reject each one (non-draining shutdown)."""
        with self._not_empty:
            self._closed = True
            abandoned = list(self._items)
            self._items.clear()
            self._depth_gauge.set(0)
            self._not_empty.notify_all()
            return abandoned
