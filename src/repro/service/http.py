"""HTTP front end for the query service.

Extends the metrics server (:mod:`repro.obs.serve`) — same stdlib
``ThreadingHTTPServer``, same restart-safe lifecycle, same bearer-token
gate on ``/metrics`` — with the service routes:

* ``POST /join`` — ``{"r": ..., "s": ..., "deadline": seconds?,
  "algorithm"?, "num_partitions"?}`` → ``{"pairs": [[r, s], ...],
  "metrics": {...}}``;
* ``POST /probe`` — ``{"name": ..., "elements": [...],
  "deadline"?}`` → ``{"tids": [...]}``;
* ``GET /readyz`` — 200 only while the service is READY; 503 with the
  lifecycle state otherwise, which is what flips a load balancer away
  during drain.  ``GET /healthz`` (inherited) stays 200 for the whole
  process lifetime — liveness and readiness are different questions.
* ``GET /debug/queries`` — flight-recorder ring summaries (newest
  first); ``GET /debug/query/<id>`` — one query's full evidence
  (timeline, plan, drift, span tree; the frozen postmortem for failed
  or objective-breaching queries); ``GET /debug/profile`` — the
  sampling profiler's phase attribution; ``GET /debug/workload`` —
  the workload ledger's heavy-hitter report (totals, reconciliation,
  top fingerprints by wall/pages/comparisons; ``?top=N`` widens it);
  ``GET /debug/slo`` — SLO window states and burn rates.  All debug
  routes are token-gated like ``/metrics`` (query evidence names
  relations and carries plans) and return 404 when the corresponding
  layer is disabled.

Typed service errors map onto transport status codes and every error
body carries the error class name, so a load generator can tally sheds
vs deadline misses vs real failures without string matching:

==============================  ====
:class:`AdmissionRejected`      429
:class:`ServiceUnavailable`     503
:class:`DeadlineExceeded`       504
:class:`ConfigurationError`     400
other :class:`SetJoinError`     500
==============================  ====
"""

from __future__ import annotations

import json

from ..errors import (
    AdmissionRejected,
    ConfigurationError,
    DeadlineExceeded,
    ServiceUnavailable,
    SetJoinError,
)
from ..obs.serve import MetricsServer, _Handler
from .core import QueryService

__all__ = ["ServiceServer", "STATUS_FOR_ERROR"]

#: Most-derived classes first; the handler walks this in order.
STATUS_FOR_ERROR = (
    (AdmissionRejected, 429),
    (ServiceUnavailable, 503),
    (DeadlineExceeded, 504),
    (ConfigurationError, 400),
    (SetJoinError, 500),
)

#: Upper bound on accepted request bodies (a probe or join request is
#: tiny; anything larger is a mistake or abuse).
_MAX_BODY = 1 << 20


class _ServiceHandler(_Handler):
    server_version = "setjoin-service/1.0"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        route = self.path.split("?", 1)[0]
        if route == "/readyz":
            service: QueryService = self.server.service
            stats = service.stats()
            status = 200 if service.ready else 503
            self._reply(
                status, "application/json",
                json.dumps(stats, sort_keys=True).encode(),
            )
        elif route in ("/debug/queries", "/debug/profile",
                       "/debug/workload", "/debug/slo") \
                or route.startswith("/debug/query/"):
            if not self._authorized():
                self._reply(401, "application/json",
                            json.dumps({"error": "unauthorized"}).encode())
                return
            try:
                status, body = self._handle_debug(route)
            except Exception as error:  # noqa: BLE001 — mapped to codes
                self._reply_error(error)
                return
            self._reply(status, "application/json",
                        json.dumps(body, sort_keys=True).encode())
        else:
            super().do_GET()

    def _handle_debug(self, route: str) -> "tuple[int, dict | list]":
        service: QueryService = self.server.service
        if route == "/debug/queries":
            entries = service.debug_queries()
            if entries is None:
                return 404, {"error": "flight recorder disabled"}
            return 200, {"queries": entries}
        if route == "/debug/profile":
            report = service.profile_report()
            if report is None:
                return 404, {"error": "profiler disabled"}
            return 200, report
        if route == "/debug/workload":
            top = 5
            query_string = self.path.partition("?")[2]
            for part in query_string.split("&"):
                if part.startswith("top="):
                    try:
                        top = int(part[len("top="):])
                    except ValueError:
                        raise ConfigurationError(
                            f"top must be an integer, got {part!r}"
                        ) from None
            report = service.debug_workload(top=top)
            if report is None:
                return 404, {"error": "workload ledger disabled"}
            return 200, report
        if route == "/debug/slo":
            report = service.debug_slo()
            if report is None:
                return 404, {"error": "slo tracker disabled"}
            return 200, report
        raw = route[len("/debug/query/"):]
        try:
            query_id = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"query id must be an integer, got {raw!r}"
            ) from None
        entry = service.debug_query(query_id)
        if entry is None:
            if service.debug_queries() is None:
                return 404, {"error": "flight recorder disabled"}
            return 404, {"error": f"query {query_id} not recorded"}
        return 200, entry

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        route = self.path.split("?", 1)[0]
        if route not in ("/join", "/probe"):
            self._reply(404, "application/json", json.dumps(
                {"error": "not found",
                 "endpoints": ["/join", "/probe", "/readyz", "/healthz",
                               "/metrics", "/debug/queries",
                               "/debug/query/<id>", "/debug/profile",
                               "/debug/workload", "/debug/slo"]}
            ).encode())
            return
        try:
            request = self._read_json()
            if route == "/join":
                body = self._handle_join(request)
            else:
                body = self._handle_probe(request)
        except Exception as error:  # noqa: BLE001 — mapped to status codes
            self._reply_error(error)
            return
        self._reply(200, "application/json",
                    json.dumps(body, sort_keys=True).encode())

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0 or length > _MAX_BODY:
            raise ConfigurationError(
                f"request body must be 1..{_MAX_BODY} bytes, got {length}"
            )
        try:
            request = json.loads(self.rfile.read(length))
        except ValueError as error:
            raise ConfigurationError(
                f"request body is not valid JSON: {error}"
            ) from error
        if not isinstance(request, dict):
            raise ConfigurationError("request body must be a JSON object")
        return request

    def _handle_join(self, request: dict) -> dict:
        service: QueryService = self.server.service
        params = {}
        for key in ("algorithm", "num_partitions", "signature_bits", "seed"):
            if key in request:
                params[key] = request[key]
        pairs, metrics = service.join(
            self._required(request, "r"), self._required(request, "s"),
            deadline=request.get("deadline"), **params,
        )
        return {
            "pairs": sorted(list(pair) for pair in pairs),
            "metrics": {
                "algorithm": metrics.algorithm,
                "num_partitions": metrics.num_partitions,
                "signature_comparisons": metrics.signature_comparisons,
                "replicated_signatures": metrics.replicated_signatures,
                "total_seconds": metrics.total_seconds,
            },
        }

    def _handle_probe(self, request: dict) -> dict:
        service: QueryService = self.server.service
        elements = self._required(request, "elements")
        if not isinstance(elements, list):
            raise ConfigurationError("elements must be a JSON array")
        tids = service.probe(
            self._required(request, "name"), elements,
            deadline=request.get("deadline"),
        )
        return {"tids": tids}

    @staticmethod
    def _required(request: dict, key: str):
        if key not in request:
            raise ConfigurationError(f"request is missing {key!r}")
        return request[key]

    def _reply_error(self, error: Exception) -> None:
        status = 500
        for klass, code in STATUS_FOR_ERROR:
            if isinstance(error, klass):
                status = code
                break
        body = json.dumps({
            "error": type(error).__name__,
            "detail": str(error),
        }, sort_keys=True).encode()
        self._reply(status, "application/json", body)


class ServiceServer(MetricsServer):
    """The query service's HTTP endpoint.

    Wraps an already-constructed (not necessarily started)
    :class:`QueryService`; starting the server does *not* start the
    service — the CLI sequences ``service.start()`` then
    ``server.start()`` so ``/readyz`` can never be 200 before the
    execution lane exists.  Inherits ``/metrics`` (token-gated),
    ``/healthz``, restart-safe ``start()``/``stop()``.
    """

    handler_class = _ServiceHandler

    def __init__(self, service: QueryService, host: str = "127.0.0.1",
                 port: int = 9464, registry=None, token: str | None = None):
        super().__init__(host, port, registry=registry, token=token)
        self.service = service

    def _configure_server(self, httpd) -> None:
        httpd.service = self.service
