"""Workload ledger: fingerprints, per-query bills, exact reconciliation."""

import pytest

from repro.database import SetJoinDatabase
from repro.errors import ConfigurationError, SetJoinError
from repro.obs.flight import QueryContext
from repro.obs.ledger import (
    RESOURCE_COUNTERS,
    QueryLedger,
    WorkloadLedger,
    normalize_workload_name,
    query_fingerprint,
)
from repro.obs.registry import MetricsRegistry
from repro.service import QueryService


class TestNormalizeWorkloadName:
    def test_digit_runs_collapse(self):
        assert normalize_workload_name("scratch_17") == "scratch_*"
        assert normalize_workload_name("scratch_2048") == "scratch_*"

    def test_names_without_digits_pass_through(self):
        assert normalize_workload_name("orders") == "orders"

    def test_churn_series_shares_one_shape(self):
        names = {normalize_workload_name(f"churn_{i}") for i in range(50)}
        assert names == {"churn_*"}


class TestQueryFingerprint:
    def test_stable_across_detail_ordering(self):
        a = query_fingerprint("join", {"r": "x", "s": "y", "k": 4})
        b = query_fingerprint("join", {"k": 4, "s": "y", "r": "x"})
        assert a.key == b.key
        assert a.label == b.label

    def test_none_fields_are_dropped(self):
        a = query_fingerprint("join", {"r": "x", "k": None})
        b = query_fingerprint("join", {"r": "x"})
        assert a.key == b.key

    def test_floats_round_to_three_places(self):
        a = query_fingerprint("join", {"theta": 6.00004})
        b = query_fingerprint("join", {"theta": 6.0})
        assert a.key == b.key

    def test_different_shapes_differ(self):
        a = query_fingerprint("join", {"r": "x", "algorithm": "DCJ"})
        b = query_fingerprint("join", {"r": "x", "algorithm": "PSJ"})
        assert a.key != b.key

    def test_label_is_readable(self):
        fp = query_fingerprint("join", {"r": "orders", "algorithm": "DCJ"})
        assert fp.label.startswith("join ")
        assert "algorithm=DCJ" in fp.label
        assert "r=orders" in fp.label

    def test_to_dict_is_plain_data(self):
        fp = query_fingerprint("probe", {"name": "s"})
        data = fp.to_dict()
        assert data["key"] == fp.key
        assert data["detail"]["kind"] == "probe"


class TestQueryLedger:
    def test_from_delta_keeps_only_counters(self):
        registry = MetricsRegistry()
        baseline = registry.snapshot()
        registry.counter("setjoin_page_reads_total", "h").inc(7)
        registry.gauge("setjoin_last_buffer_hit_rate", "h").set(0.5)
        ledger = QueryLedger.from_delta(
            registry.delta(baseline), wall_seconds=0.25, cpu_seconds=0.1
        )
        assert ledger.counters == {"setjoin_page_reads_total": 7}
        assert ledger.resources["pages_read"] == 7

    def test_resources_are_zero_filled(self):
        ledger = QueryLedger()
        assert set(ledger.resources) == set(RESOURCE_COUNTERS)
        assert all(value == 0 for value in ledger.resources.values())

    def test_round_trips_through_dict(self):
        ledger = QueryLedger(
            wall_seconds=1.5, cpu_seconds=0.5,
            counters={"setjoin_wal_bytes_total": 128},
        )
        clone = QueryLedger.from_dict(ledger.to_dict())
        assert clone.wall_seconds == 1.5
        assert clone.counters == ledger.counters

    def test_from_dict_accepts_resources_only_records(self):
        clone = QueryLedger.from_dict({"resources": {"pages_read": 3}})
        assert clone.counters == {"setjoin_page_reads_total": 3}


def billed(fingerprint, bill, kind="join", status="ok", query_id=None):
    """A finished record as the service hands it to the ledger."""
    return QueryContext(
        query_id, kind, status=status, ledger=bill,
        fingerprint=fingerprint.key, label=fingerprint.label,
    )


class TestWorkloadLedgerUnit:
    @staticmethod
    def make(registry=None):
        return WorkloadLedger(
            registry=registry if registry is not None else MetricsRegistry()
        )

    def test_attribute_groups_by_fingerprint(self):
        ledger = self.make()
        fp = query_fingerprint("join", {"r": "x"})
        bill = QueryLedger(counters={"setjoin_page_reads_total": 2})
        ledger.attribute(billed(fp, bill, kind="join", status="ok", query_id=1))
        ledger.attribute(
            billed(fp, bill, kind="join", status="error", query_id=2)
        )
        assert ledger.queries == 2
        assert ledger.fingerprints == 1
        (group,) = ledger.top(1, by="queries")
        assert group["queries"] == 2
        assert group["ok"] == 1 and group["failed"] == 1
        assert group["resources"]["pages_read"] == 4
        assert group["last_query_id"] == 2

    def test_top_orders_and_validates(self):
        ledger = self.make()
        heavy = query_fingerprint("join", {"r": "heavy"})
        light = query_fingerprint("join", {"r": "light"})
        ledger.attribute(billed(
            heavy,
            QueryLedger(counters={"setjoin_signature_comparisons_total": 90}),
            kind="join", status="ok",
        ))
        ledger.attribute(billed(
            light,
            QueryLedger(counters={"setjoin_signature_comparisons_total": 10}),
            kind="join", status="ok",
        ))
        order = [g["fingerprint"] for g in ledger.top(2, by="comparisons")]
        assert order == [heavy.key, light.key]
        with pytest.raises(ConfigurationError, match="top"):
            ledger.top(2, by="nonsense")
        with pytest.raises(ConfigurationError, match=">= 0"):
            ledger.top(-1)

    def test_reconcile_requires_begin(self):
        ledger = self.make()
        with pytest.raises(ConfigurationError, match="begin"):
            ledger.reconcile()

    def test_offline_report_omits_reconciliation(self):
        ledger = self.make()
        ledger.attribute(QueryContext.from_dict({
            "schema": 1,
            "query_id": 1, "kind": "join", "fingerprint": "abc",
            "label": "join r=x", "status": "ok",
            "ledger": {"wall_seconds": 0.1, "resources": {"pages_read": 2}},
        }))
        report = ledger.report()
        assert "reconciliation" not in report
        assert report["totals"]["pages_read"] == 2

    def test_attribute_record_without_ledger_raises(self):
        ledger = self.make()
        with pytest.raises(ConfigurationError, match="no ledger"):
            ledger.attribute(QueryContext.from_dict({
                "schema": 1, "query_id": 4, "kind": "join",
                "fingerprint": "abc", "status": "ok", "ledger": None,
            }))

    def test_exact_reconciliation_over_a_private_registry(self):
        registry = MetricsRegistry()
        ledger = WorkloadLedger(registry=registry)
        ledger.begin()
        baseline = registry.snapshot()
        registry.counter("setjoin_page_reads_total", "h").inc(11)
        registry.counter("setjoin_wal_bytes_total", "h").inc(64)
        bill = QueryLedger.from_delta(registry.delta(baseline), 0.0, 0.0)
        ledger.attribute(billed(
            query_fingerprint("join", {"r": "x"}), bill,
            kind="join", status="ok",
        ))
        outcome = ledger.reconcile()
        assert outcome["exact"] is True
        assert outcome["counters"]["pages_read"] == {
            "global": 11, "attributed": 11, "unattributed": 0,
        }
        # Movement nobody billed shows up as unattributed.
        registry.counter("setjoin_page_reads_total", "h").inc(1)
        outcome = ledger.reconcile()
        assert outcome["exact"] is False
        assert outcome["counters"]["pages_read"]["unattributed"] == 1


def run_mixed_traffic(service):
    """Joins (auto + pinned), probes, churn, and one failed query."""
    service.join("r", "s")
    service.join("r", "s", algorithm="PSJ", num_partitions=4)
    service.probe("s", [1, 2, 3])
    service.submit("create", name="scratch_1",
                   rows=[(0, [1, 2]), (1, [2, 3])]).result()
    service.submit("drop", name="scratch_1").result()
    with pytest.raises(SetJoinError):
        service.join("r", "no_such_relation")


class TestServiceReconciliation:
    """The acceptance bar: the sum of per-query bills equals the global
    registry movement since the service started — exactly — under every
    backend and shard count.  Uses the process-global registry because
    that is where the storage substrate publishes (the service's lane
    window and the reconcile window are both deltas, so prior state
    cancels)."""

    @staticmethod
    def serve(db, **kwargs):
        kwargs.setdefault("workers", 2)
        kwargs.setdefault("backend", "thread")
        return QueryService(db, **kwargs)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_exact_across_backends(self, tmp_path, small_workload, backend):
        lhs, rhs = small_workload
        path = str(tmp_path / "led.db")
        with SetJoinDatabase.open(path) as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
        service = self.serve(path, backend=backend).start()
        try:
            run_mixed_traffic(service)
            report = service.debug_workload()
            assert report["queries"] == 6
            reconciliation = report["reconciliation"]
            assert reconciliation["exact"] is True, reconciliation
            # The traffic genuinely moved the interesting counters.
            totals = report["totals"]
            assert totals["signature_comparisons"] > 0
            assert totals["result_pairs"] > 0
        finally:
            service.stop()

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_exact_across_shard_counts(self, tmp_path, small_workload,
                                       shards):
        lhs, rhs = small_workload
        path = str(tmp_path / "led.db")
        with SetJoinDatabase.open_sharded(path, shards=shards) as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
        service = self.serve(path, shards=shards).start()
        try:
            run_mixed_traffic(service)
            reconciliation = service.debug_workload()["reconciliation"]
            assert reconciliation["exact"] is True, reconciliation
        finally:
            service.stop()

    def test_failed_queries_are_billed_too(self, tmp_path, small_workload):
        lhs, rhs = small_workload
        path = str(tmp_path / "led.db")
        with SetJoinDatabase.open(path) as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
        service = self.serve(path).start()
        try:
            with pytest.raises(SetJoinError):
                service.join("r", "no_such_relation")
            report = service.debug_workload()
            assert report["queries"] == 1
            (group,) = report["top"]["wall"]
            assert group["failed"] == 1
        finally:
            service.stop()

    def test_fingerprints_collapse_churn_names(self, tmp_path,
                                               small_workload):
        lhs, rhs = small_workload
        path = str(tmp_path / "led.db")
        with SetJoinDatabase.open(path) as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
        service = self.serve(path).start()
        try:
            for index in range(3):
                service.submit("create", name=f"scratch_{index}",
                               rows=[(0, [1, 2])]).result()
                service.submit("drop", name=f"scratch_{index}").result()
            report = service.debug_workload()
            assert report["queries"] == 6
            # 3 creates and 3 drops, but only 2 workload shapes.
            assert report["fingerprints"] == 2
        finally:
            service.stop()

    def test_repeated_joins_share_a_fingerprint(self, tmp_path,
                                                small_workload):
        lhs, rhs = small_workload
        path = str(tmp_path / "led.db")
        with SetJoinDatabase.open(path) as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
        service = self.serve(path).start()
        try:
            for __ in range(3):
                service.join("r", "s")
            report = service.debug_workload()
            assert report["queries"] == 3
            assert report["fingerprints"] == 1
            (group,) = report["top"]["wall"]
            assert group["queries"] == 3
        finally:
            service.stop()


class TestLedgerIsObservationOnly:
    def test_results_identical_with_ledger_on_or_off(self, tmp_path,
                                                     small_workload):
        lhs, rhs = small_workload
        path = str(tmp_path / "led.db")
        with SetJoinDatabase.open(path) as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
        answers = []
        for enabled in (True, False):
            service = QueryService(
                path, workers=2, backend="thread", ledger=enabled,
            ).start()
            try:
                pairs, metrics = service.join("r", "s")
                answers.append((
                    sorted(pairs),
                    metrics.signature_comparisons,
                    metrics.replicated_signatures,
                ))
                if enabled:
                    assert service.debug_workload()["queries"] == 1
                else:
                    assert service.debug_workload() is None
            finally:
                service.stop()
        assert answers[0] == answers[1]
