"""Query service lifecycle, deadlines, drift, and HTTP front end."""

import json
import urllib.error
import urllib.request

import pytest

from repro.database import SetJoinDatabase
from repro.errors import (
    AdmissionRejected,
    ConfigurationError,
    DeadlineExceeded,
    ServiceUnavailable,
)
from repro.obs.registry import MetricsRegistry
from repro.service import (
    ChaosConfig,
    ChaosInjector,
    QueryService,
    ServiceServer,
    ServiceState,
)


@pytest.fixture()
def loaded_db(small_workload):
    lhs, rhs = small_workload
    with SetJoinDatabase.open() as db:
        db.create_relation("r", lhs)
        db.create_relation("s", rhs)
        yield db


def make_service(db, **kwargs):
    kwargs.setdefault("registry", MetricsRegistry())
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("backend", "thread")
    return QueryService(db, **kwargs)


class TestLifecycle:
    def test_submit_before_start_is_unavailable(self, loaded_db):
        service = make_service(loaded_db)
        with pytest.raises(ServiceUnavailable, match="starting"):
            service.submit("probe", name="s", elements=[1])

    def test_start_stop_states(self, loaded_db):
        service = make_service(loaded_db)
        assert service.state == ServiceState.STARTING
        service.start()
        assert service.ready
        service.stop()
        assert service.state == ServiceState.STOPPED
        with pytest.raises(ServiceUnavailable):
            service.submit("probe", name="s", elements=[1])

    def test_stop_is_idempotent(self, loaded_db):
        service = make_service(loaded_db).start()
        service.stop()
        service.stop()

    def test_double_start_rejected(self, loaded_db):
        service = make_service(loaded_db).start()
        try:
            with pytest.raises(ConfigurationError, match="cannot start"):
                service.start()
        finally:
            service.stop()

    def test_borrowed_db_stays_open_after_stop(self, loaded_db):
        service = make_service(loaded_db).start()
        service.stop()
        assert sorted(loaded_db.relation_names()) == ["r", "s"]

    def test_owned_db_closed_on_stop(self, tmp_path, small_workload):
        lhs, rhs = small_workload
        path = str(tmp_path / "owned.db")
        with SetJoinDatabase.open(path) as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
        service = make_service(path).start()
        try:
            assert len(service.probe("s", [1, 2])) >= 0
        finally:
            service.stop()
        # Reopenable: the service closed its database cleanly.
        with SetJoinDatabase.open(path) as db:
            assert sorted(db.relation_names()) == ["r", "s"]

    def test_context_manager(self, loaded_db):
        with make_service(loaded_db) as service:
            assert service.ready
        assert service.state == ServiceState.STOPPED

    def test_wait_wakes_on_stop(self, loaded_db):
        import threading

        service = make_service(loaded_db).start()
        woke = []
        waiter = threading.Thread(
            target=lambda: woke.append(service.wait(timeout=10.0))
        )
        waiter.start()
        service.stop()
        waiter.join(timeout=10.0)
        assert woke == [True]


class TestQueries:
    def test_join_matches_direct_database_join(self, loaded_db):
        expected, __ = loaded_db.join("r", "s")
        with make_service(loaded_db) as service:
            pairs, metrics = service.join("r", "s")
        assert pairs == expected
        assert metrics.algorithm in ("DCJ", "PSJ", "LSJ", "SHJ")

    def test_probe_matches_direct_probe(self, loaded_db):
        with make_service(loaded_db) as service:
            pairs, __ = service.join("r", "s")
            # Probe with a stored R set: its join partners must show up.
            r_sets = {tid: elements for tid, elements, __ in
                      loaded_db.get_store("r").scan()}
            some_r, partner = next(iter(sorted(pairs)))
            tids = service.probe("s", r_sets[some_r])
        assert partner in tids

    def test_create_and_drop_through_the_lane(self, loaded_db):
        with make_service(loaded_db) as service:
            count = service.create_relation(
                "scratch", [(1, [1, 2]), (2, [3])]
            )
            assert count == 2
            assert service.probe("scratch", [3]) == [2]
            service.drop_relation("scratch")
        assert "scratch" not in loaded_db.relation_names()

    def test_unknown_kind_is_rejected_typed(self, loaded_db):
        with make_service(loaded_db) as service:
            ticket = service.submit("vacuum")
            with pytest.raises(ConfigurationError, match="unknown query"):
                ticket.result(timeout=10.0)

    def test_bad_relation_name_is_rejected_typed(self, loaded_db):
        with make_service(loaded_db) as service:
            with pytest.raises(ConfigurationError, match="no relation"):
                service.probe("nope", [1])

    def test_lane_survives_a_failed_query(self, loaded_db):
        with make_service(loaded_db) as service:
            with pytest.raises(ConfigurationError):
                service.probe("nope", [1])
            assert service.probe("s", [1]) is not None  # still alive

    def test_completed_counter_advances(self, loaded_db):
        registry = MetricsRegistry()
        with make_service(loaded_db, registry=registry) as service:
            service.probe("s", [1])
            service.probe("s", [2])
        snapshot = registry.snapshot()
        assert snapshot["setjoin_service_completed_total"]["value"] == 2
        assert snapshot["setjoin_service_query_seconds"]["count"] == 2


class TestDeadlinesAndShedding:
    def test_deadline_expired_while_queued(self, loaded_db):
        # No execution lane: set READY by hand so submissions park in
        # the queue, then let the deadline lapse before executing.
        service = make_service(loaded_db, default_deadline=0.005)
        service._set_state(ServiceState.READY)
        ticket = service.submit("probe", name="s", elements=[1])
        import time

        time.sleep(0.02)
        taken = service._queue.take(timeout=0.1)
        assert taken is ticket
        with pytest.raises(DeadlineExceeded, match="deadline elapsed"):
            service._execute(taken)

    def test_nonpositive_deadline_rejected_at_submit(self, loaded_db):
        with make_service(loaded_db) as service:
            with pytest.raises(ConfigurationError, match="deadline"):
                service.submit("probe", deadline=-1.0, name="s", elements=[])

    @pytest.mark.parametrize("deadline", [
        float("nan"), float("inf"), "5", True,
    ], ids=["nan", "inf", "'5'", "True"])
    def test_unusable_deadline_rejected_at_admission(self, loaded_db,
                                                     deadline):
        """A deadline no wait can time is refused before it is queued,
        naming the deadline — not admitted to fail (or run unbounded)
        inside the join."""
        with make_service(loaded_db) as service:
            with pytest.raises(ConfigurationError, match="^deadline"):
                service.submit("join", deadline=deadline, r="r", s="s")
            assert service.queue_depth == 0
        with pytest.raises(ConfigurationError, match="default_deadline"):
            make_service(loaded_db, default_deadline=deadline)

    @pytest.mark.parametrize("workers", [0, True, 2.5, "2", None])
    def test_unusable_workers_rejected_at_construction(self, loaded_db,
                                                       workers):
        with pytest.raises(ConfigurationError, match="workers"):
            make_service(loaded_db, workers=workers)

    def test_uncallable_chaos_rejected_at_construction(self, loaded_db):
        with pytest.raises(ConfigurationError, match="hook"):
            make_service(loaded_db, chaos=5)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_deadline_past_the_wait_limit_answers(self, loaded_db, backend):
        """A deadline beyond ``threading.TIMEOUT_MAX`` bounds nothing a
        wait can time, so the shard fan-out waits without one."""
        from repro.parallel.executor import ProcessBackend

        if backend == "process" and not ProcessBackend(2).available():
            pytest.skip("process backend unavailable in this sandbox")

        def slow_shards(spec):
            # Shards still running when the fan-out starts waiting.
            spec.chaos_delay = 0.05

        expected, __ = loaded_db.join("r", "s")
        with make_service(loaded_db, backend=backend, chaos=slow_shards,
                          default_deadline=1e300) as service:
            pairs, __ = service.join("r", "s")
            assert service.join("r", "s", deadline=1e300)[0] == expected
        assert pairs == expected

    def test_full_queue_sheds_with_429_class_error(self, loaded_db):
        service = make_service(loaded_db, queue_depth=2)
        service._set_state(ServiceState.READY)  # no lane: nothing drains
        service.submit("probe", name="s", elements=[1])
        service.submit("probe", name="s", elements=[2])
        with pytest.raises(AdmissionRejected, match="queue full"):
            service.submit("probe", name="s", elements=[3])

    def test_nondraining_stop_rejects_queued_queries(self, loaded_db):
        service = make_service(loaded_db, queue_depth=8)
        service._set_state(ServiceState.READY)
        tickets = [service.submit("probe", name="s", elements=[i])
                   for i in range(3)]
        service.stop(drain=False)
        for ticket in tickets:
            assert ticket.done()
            with pytest.raises(ServiceUnavailable, match="draining"):
                ticket.result(timeout=0.1)

    def test_draining_stop_answers_everything_admitted(self, loaded_db):
        service = make_service(loaded_db).start()
        tickets = [service.submit("probe", name="s", elements=[i])
                   for i in range(5)]
        service.stop(drain=True)
        for ticket in tickets:
            assert ticket.result(timeout=10.0) is not None


class TestDriftUnderTraffic:
    def test_joins_append_drift_records(self, tmp_path, loaded_db):
        drift = str(tmp_path / "drift.jsonl")
        with make_service(loaded_db, drift_path=drift) as service:
            service.join("r", "s")
            service.join("r", "s")
        from repro.obs.drift import read_drift_jsonl

        records = read_drift_jsonl(drift)
        assert len(records) == 2
        assert records[0].predicted["seconds"] is not None
        assert records[0].observed["comparisons"] > 0

    def test_startup_rotation_writes_fingerprint_meta(self, tmp_path,
                                                      loaded_db):
        import os

        drift = str(tmp_path / "drift.jsonl")
        with make_service(loaded_db, drift_path=drift) as service:
            assert service.drift_rotation == {
                "archived": False, "rotated": False, "kept": 0, "dropped": 0,
            }
        assert os.path.exists(drift + ".meta.json")

    def test_explicit_algorithm_skips_drift(self, tmp_path, loaded_db):
        import os

        drift = str(tmp_path / "drift.jsonl")
        with make_service(loaded_db, drift_path=drift) as service:
            service.join("r", "s", algorithm="PSJ", num_partitions=8)
        # Only auto-planned joins have a prediction to compare against.
        assert not os.path.exists(drift)


class TestChaosHookWiring:
    def test_chaos_kill_is_retried_transparently(self, loaded_db):
        chaos = ChaosInjector(
            ChaosConfig(worker_kill_rate=1.0), seed=1,
            registry=MetricsRegistry(),
        )
        expected, __ = loaded_db.join("r", "s")
        with make_service(loaded_db, chaos=chaos) as service:
            # Rate 1.0 kills every attempt: exhausts retries and fails.
            chaos.arm()
            from repro.errors import SetJoinError

            with pytest.raises(SetJoinError):
                service.join("r", "s")
            chaos.disarm()
            pairs, __ = service.join("r", "s")
        assert pairs == expected
        assert chaos.kills >= 3  # one per retry attempt


class TestHTTPFrontEnd:
    @pytest.fixture()
    def served(self, loaded_db):
        registry = MetricsRegistry()
        service = make_service(loaded_db, registry=registry).start()
        server = ServiceServer(service, port=0, registry=registry).start()
        yield service, server
        server.stop()
        if service.state != ServiceState.STOPPED:
            service.stop()

    def post(self, url, payload):
        request = urllib.request.Request(
            url, data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return response.status, json.loads(response.read())

    def get(self, url):
        with urllib.request.urlopen(url, timeout=10.0) as response:
            return response.status, json.loads(response.read())

    def test_join_over_http(self, served, loaded_db):
        service, server = served
        expected, __ = loaded_db.join("r", "s")
        status, body = self.post(server.url + "/join", {"r": "r", "s": "s"})
        assert status == 200
        assert {tuple(pair) for pair in body["pairs"]} == expected
        assert body["metrics"]["signature_comparisons"] > 0

    def test_probe_over_http(self, served):
        service, server = served
        status, body = self.post(
            server.url + "/probe", {"name": "s", "elements": [1]}
        )
        assert status == 200
        assert body["tids"] == service.probe("s", [1])

    def test_readyz_follows_lifecycle(self, served):
        service, server = served
        status, body = self.get(server.url + "/readyz")
        assert status == 200 and body["state"] == "ready"
        service.stop()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.get(server.url + "/readyz")
        assert excinfo.value.code == 503
        assert json.loads(excinfo.value.read())["state"] == "stopped"

    def test_healthz_stays_alive_while_draining(self, served):
        service, server = served
        service.stop()
        status, body = self.get(server.url + "/healthz")
        assert status == 200 and body["status"] == "ok"

    def test_missing_field_is_400(self, served):
        __, server = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.post(server.url + "/join", {"r": "r"})
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"] == \
            "ConfigurationError"

    @pytest.mark.parametrize("route, payload", [
        ("/join", {"r": "r", "s": "s"}),
        ("/probe", {"name": "s", "elements": [1]}),
    ], ids=["join", "probe"])
    @pytest.mark.parametrize("deadline", ["5", True, 0])
    def test_unusable_deadline_is_400(self, served, route, payload,
                                      deadline):
        __, server = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.post(server.url + route, dict(payload, deadline=deadline))
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"] == "ConfigurationError"
        assert body["detail"].startswith("deadline")

    @pytest.mark.parametrize("algorithm", ["DCJ", "auto"])
    @pytest.mark.parametrize("k", [0, -3, True, 2.5, "8"])
    def test_unusable_partition_count_is_400(self, served, algorithm, k):
        __, server = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.post(server.url + "/join", {"r": "r", "s": "s",
                                             "algorithm": algorithm,
                                             "num_partitions": k})
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"] == "ConfigurationError"
        assert body["detail"].startswith("num_partitions")

    def test_unknown_relation_is_400(self, served):
        __, server = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.post(server.url + "/probe", {"name": "ghost",
                                              "elements": [1]})
        assert excinfo.value.code == 400

    def test_invalid_json_is_400(self, served):
        __, server = served
        request = urllib.request.Request(
            server.url + "/join", data=b"not json",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 400

    def test_unknown_post_route_is_404(self, served):
        __, server = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.post(server.url + "/vacuum", {})
        assert excinfo.value.code == 404

    def test_stopped_service_maps_to_503(self, served):
        service, server = served
        service.stop()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.post(server.url + "/probe", {"name": "s", "elements": [1]})
        assert excinfo.value.code == 503
        assert json.loads(excinfo.value.read())["error"] == \
            "ServiceUnavailable"

    def test_shed_maps_to_429(self, loaded_db):
        registry = MetricsRegistry()
        service = make_service(loaded_db, queue_depth=1, registry=registry)
        service._set_state(ServiceState.READY)  # no lane: queue stays full
        service.submit("probe", name="s", elements=[1])
        server = ServiceServer(service, port=0, registry=registry).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self.post(server.url + "/probe",
                          {"name": "s", "elements": [2]})
            assert excinfo.value.code == 429
            assert json.loads(excinfo.value.read())["error"] == \
                "AdmissionRejected"
        finally:
            server.stop()
            service.stop(drain=False)

    def test_metrics_endpoint_inherited(self, served):
        service, server = served
        service.probe("s", [1])
        with urllib.request.urlopen(server.url + "/metrics",
                                    timeout=10.0) as response:
            body = response.read().decode()
        assert "setjoin_service_completed_total" in body
        assert "setjoin_service_queue_depth" in body


class TestHTTPDebugEndpoints:
    @pytest.fixture()
    def served(self, loaded_db):
        registry = MetricsRegistry()
        service = make_service(
            loaded_db, registry=registry, flight_recorder=8,
        ).start()
        server = ServiceServer(service, port=0, registry=registry).start()
        yield service, server
        server.stop()
        if service.state != ServiceState.STOPPED:
            service.stop()

    def get(self, url):
        with urllib.request.urlopen(url, timeout=10.0) as response:
            return response.status, json.loads(response.read())

    def post_join(self, server, r="r", s="s"):
        request = urllib.request.Request(
            server.url + "/join",
            data=json.dumps({"r": r, "s": s}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return response.status, json.loads(response.read())

    def test_debug_queries_lists_recent(self, served):
        __, server = served
        self.post_join(server)
        status, body = self.get(server.url + "/debug/queries")
        assert status == 200
        entry = body["queries"][0]
        assert entry["kind"] == "join"
        assert entry["status"] == "ok"
        assert entry["postmortem"] is False

    def test_debug_query_returns_full_evidence(self, served):
        __, server = served
        self.post_join(server)
        __, listing = self.get(server.url + "/debug/queries")
        query_id = listing["queries"][0]["query_id"]
        status, entry = self.get(server.url + f"/debug/query/{query_id}")
        assert status == 200
        assert entry["query_id"] == query_id
        assert entry["plan"]["algorithm"]
        assert [e["event"] for e in entry["timeline"]].count("attempt") >= 1
        assert any(span["name"] == "query" for span in entry["spans"])

    def test_failed_query_postmortem_over_http(self, served):
        __, server = served
        with pytest.raises(urllib.error.HTTPError):
            self.post_join(server, r="ghost")
        __, listing = self.get(server.url + "/debug/queries")
        entry = listing["queries"][0]
        assert entry["status"] != "ok"
        assert entry["postmortem"] is True
        __, postmortem = self.get(
            server.url + f"/debug/query/{entry['query_id']}"
        )
        assert postmortem["postmortem_reason"] == entry["status"]
        assert postmortem["error"]["type"]
        assert postmortem["environment"]["platform"]

    def test_disabled_layers_are_404(self, loaded_db):
        registry = MetricsRegistry()
        service = make_service(loaded_db, registry=registry).start()
        server = ServiceServer(service, port=0, registry=registry).start()
        try:
            for route in ("/debug/queries", "/debug/query/1",
                          "/debug/profile"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    self.get(server.url + route)
                assert excinfo.value.code == 404
        finally:
            server.stop()
            service.stop()

    def test_bad_query_id_is_400(self, served):
        __, server = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.get(server.url + "/debug/query/nope")
        assert excinfo.value.code == 400

    def test_unrecorded_query_id_is_404(self, served):
        __, server = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.get(server.url + "/debug/query/999999")
        assert excinfo.value.code == 404
        assert json.loads(excinfo.value.read())["error"] == \
            "query 999999 not recorded"

    def test_debug_routes_honor_bearer_token(self, loaded_db):
        registry = MetricsRegistry()
        service = make_service(
            loaded_db, registry=registry, flight_recorder=8,
        ).start()
        server = ServiceServer(
            service, port=0, registry=registry, token="hunter2",
        ).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self.get(server.url + "/debug/queries")
            assert excinfo.value.code == 401
            request = urllib.request.Request(
                server.url + "/debug/queries",
                headers={"Authorization": "Bearer hunter2"},
            )
            with urllib.request.urlopen(request, timeout=10.0) as response:
                assert response.status == 200
        finally:
            server.stop()
            service.stop()

    def test_debug_workload_reports_heavy_hitters(self, served):
        __, server = served
        self.post_join(server)
        self.post_join(server)
        status, report = self.get(server.url + "/debug/workload")
        assert status == 200
        assert report["queries"] == 2
        assert report["fingerprints"] == 1
        (group,) = report["top"]["wall"]
        assert group["kind"] == "join" and group["queries"] == 2
        assert report["reconciliation"]["exact"] is True

    def test_debug_workload_honors_top_parameter(self, served):
        service, server = served
        self.post_join(server)
        service.probe("s", [1])
        __, wide = self.get(server.url + "/debug/workload?top=2")
        __, narrow = self.get(server.url + "/debug/workload?top=1")
        assert len(wide["top"]["wall"]) == 2
        assert len(narrow["top"]["wall"]) == 1

    def test_debug_workload_bad_top_is_400(self, served):
        __, server = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.get(server.url + "/debug/workload?top=banana")
        assert excinfo.value.code == 400

    def test_debug_workload_disabled_is_404(self, loaded_db):
        registry = MetricsRegistry()
        service = make_service(
            loaded_db, registry=registry, ledger=False,
        ).start()
        server = ServiceServer(service, port=0, registry=registry).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self.get(server.url + "/debug/workload")
            assert excinfo.value.code == 404
        finally:
            server.stop()
            service.stop()

    def test_debug_slo_reports_windows_and_burn(self, loaded_db):
        registry = MetricsRegistry()
        service = make_service(
            loaded_db, registry=registry, slo={"join": 30.0},
        ).start()
        server = ServiceServer(service, port=0, registry=registry).start()
        try:
            self.post_join(server)
            status, report = self.get(server.url + "/debug/slo")
            assert status == 200
            assert report["join"]["latency_objective"] == 30.0
            assert "windows" in report["join"]
            assert "alerting" in report["join"]
        finally:
            server.stop()
            service.stop()

    def test_debug_slo_disabled_is_404(self, served):
        __, server = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.get(server.url + "/debug/slo")
        assert excinfo.value.code == 404
