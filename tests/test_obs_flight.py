"""Flight recorder: query contexts, the ring, and postmortems."""

import json
import os

import pytest
from hypothesis import given, strategies as st

from repro.database import SetJoinDatabase
from repro.obs.flight import TERMINAL_STATUSES, FlightRecorder, QueryContext
from repro.obs.ledger import QueryLedger
from repro.obs.registry import MetricsRegistry
from repro.service import ChaosConfig, ChaosInjector, QueryService


class FakeWall:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        self.now += 1.0
        return self.now


def make_recorder(**kwargs):
    kwargs.setdefault("wall", FakeWall())
    return FlightRecorder(**kwargs)


def finished(query_id, kind="join", status="ok", seconds=0.1, attempts=0,
             error=None):
    """A record as the service's settle step hands it to the recorder."""
    context = QueryContext(query_id, kind, wall=FakeWall())
    context.attempts = attempts
    context.finish(status, seconds, error)
    return context


class TestQueryContext:
    def test_timeline_events_are_wall_stamped_in_order(self):
        context = QueryContext(7, "join", wall=FakeWall())
        context.event("admitted")
        context.event("attempt", number=1, backend="thread")
        kinds = [event["event"] for event in context.timeline]
        assert kinds == ["admitted", "attempt"]
        stamps = [event["at"] for event in context.timeline]
        assert stamps == sorted(stamps)
        assert context.timeline[1]["backend"] == "thread"

    def test_snapshot_is_a_deep_copy(self):
        context = QueryContext(7, "join", wall=FakeWall())
        context.event("admitted")
        context.plan = {"algorithm": "PSJ"}
        snapshot = context.to_dict()
        snapshot["timeline"][0]["event"] = "mutated"
        snapshot["plan"]["algorithm"] = "mutated"
        assert context.timeline[0]["event"] == "admitted"
        assert context.plan["algorithm"] == "PSJ"


_names = st.text(st.characters(codec="ascii", categories=("L", "N")),
                 min_size=1, max_size=8)
_numbers = st.one_of(
    st.integers(-10**9, 10**9), st.floats(allow_nan=False, width=32),
)
_flat = st.dictionaries(_names, st.one_of(_numbers, _names, st.none()),
                        max_size=4)
_seconds = st.floats(0.0, 1e6, allow_nan=False)


@st.composite
def finished_records(draw):
    """Records as the lane finishes them, over every kind and status."""
    status = draw(st.sampled_from(TERMINAL_STATUSES))
    return QueryContext(
        query_id=draw(st.integers(1, 10**9)),
        kind=draw(st.sampled_from(
            ("join", "probe", "create", "drop", "reshard"))),
        created_at=draw(_seconds),
        params=draw(st.dictionaries(
            _names, st.one_of(_numbers, _names, st.lists(_numbers,
                                                         max_size=4)),
            max_size=4)),
        plan=draw(st.none() | _flat),
        timeline=draw(st.lists(_flat, max_size=3)),
        status=status,
        seconds=draw(_seconds),
        attempts=draw(st.integers(0, 9)),
        error=(None if status == "ok"
               else {"type": draw(_names), "detail": draw(_names)}),
        ledger=draw(st.none() | st.builds(
            QueryLedger, wall_seconds=_seconds, cpu_seconds=_seconds,
            counters=st.dictionaries(_names, _numbers, max_size=4))),
        fingerprint=draw(_names),
        label=draw(_names),
        digest=draw(_flat),
        drift=draw(st.none() | _flat),
        registry_delta=draw(st.none() | _flat),
        spans=draw(st.lists(_flat, max_size=3)),
    )


class TestRecordRoundTrip:
    @given(finished_records())
    def test_flight_entry_round_trips_to_an_equal_record(self, record):
        entry = json.loads(json.dumps(record.to_dict()))
        assert QueryContext.from_dict(entry) == record

    @given(finished_records())
    def test_capture_line_is_the_entry_without_evidence(self, record):
        entry, line = record.to_dict(), record.to_dict(evidence=False)
        assert sorted(line) == [
            "attempts", "digest", "fingerprint", "kind", "label", "ledger",
            "params", "query_id", "schema", "seconds", "status",
        ]
        assert all(entry[key] == value for key, value in line.items())
        assert sorted(set(entry) - set(line)) == [
            "created_at", "drift", "error", "plan", "registry_delta",
            "spans", "timeline",
        ]
        reloaded = QueryContext.from_dict(json.loads(json.dumps(line)))
        assert reloaded.to_dict(evidence=False) == line


class TestFlightRecorderRing:
    def test_capacity_bounds_the_ring(self):
        recorder = make_recorder(capacity=3)
        for query_id in range(1, 8):
            recorder.record(finished(query_id))
        entries = recorder.entries()
        assert [entry["query_id"] for entry in entries] == [7, 6, 5]
        assert recorder.get(1) is None
        assert recorder.get(7)["status"] == "ok"

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            make_recorder(capacity=0)

    def test_entries_are_newest_first_summaries(self):
        recorder = make_recorder()
        recorder.record(
            finished(1, kind="probe", status="ok", seconds=0.5, attempts=1)
        )
        recorder.record(finished(2, status="error", seconds=1.5, attempts=3))
        first, second = recorder.entries()
        assert first == {
            "query_id": 2, "kind": "join", "status": "error",
            "seconds": 1.5, "attempts": 3, "postmortem": True,
        }
        assert second["query_id"] == 1
        assert second["postmortem"] is False


class TestPostmortems:
    def test_failure_statuses_freeze_postmortems(self):
        recorder = make_recorder()
        for query_id, status in enumerate(
            ("deadline_exceeded", "error", "internal_error"), start=1
        ):
            recorder.record(finished(query_id, status=status, seconds=0.1))
        assert recorder.postmortems() == [1, 2, 3]

    def test_ok_within_objective_is_not_a_postmortem(self):
        recorder = make_recorder()
        recorder.record(finished(1, status="ok", seconds=0.1), objective=1.0)
        assert recorder.postmortems() == []

    def test_slow_ok_query_becomes_a_postmortem(self):
        recorder = make_recorder()
        recorder.record(finished(1, status="ok", seconds=2.0), objective=1.0)
        assert recorder.postmortems() == [1]
        postmortem = recorder.get(1)
        assert postmortem["postmortem_reason"] == "latency_objective_exceeded"
        assert postmortem["objective_seconds"] == 1.0
        assert "environment" in postmortem

    def test_postmortems_survive_ring_eviction(self):
        recorder = make_recorder(capacity=2)
        recorder.record(finished(
            1, status="error", seconds=0.1, error=RuntimeError("worker died"),
        ))
        for query_id in range(2, 6):
            recorder.record(finished(query_id, status="ok", seconds=0.1))
        # Evicted from the ring, still retrievable as a postmortem.
        assert all(e["query_id"] != 1 for e in recorder.entries())
        postmortem = recorder.get(1)
        assert postmortem["error"] == {
            "type": "RuntimeError", "detail": "worker died",
        }

    def test_postmortem_dumped_to_disk(self, tmp_path):
        recorder = make_recorder(postmortem_dir=str(tmp_path / "pm"))
        recorder.record(finished(9, status="error", seconds=0.1))
        path = tmp_path / "pm" / "postmortem-q9.json"
        assert path.exists()
        dumped = json.loads(path.read_text())
        assert dumped["query_id"] == 9
        assert dumped["postmortem_reason"] == "error"
        assert not os.path.exists(str(path) + ".tmp")


class TestRingEvictionOrdering:
    def test_mixed_ok_and_failed_evict_strictly_oldest_first(self):
        """Ring eviction is insertion-ordered regardless of status; the
        postmortem map is what privileges failures, not the ring."""
        recorder = make_recorder(capacity=4)
        statuses = {}
        for query_id in range(1, 11):
            status = "error" if query_id % 3 == 0 else "ok"
            statuses[query_id] = status
            recorder.record(finished(query_id, status=status, seconds=0.1))
        entries = recorder.entries()
        assert [entry["query_id"] for entry in entries] == [10, 9, 8, 7]
        assert [entry["status"] for entry in entries] == [
            statuses[query_id] for query_id in (10, 9, 8, 7)
        ]
        # Evicted ok queries are gone; evicted failures survive as
        # postmortems and the summaries flag which entries have one.
        assert recorder.get(1) is None
        assert recorder.get(3)["postmortem_reason"] == "error"
        assert recorder.postmortems() == [3, 6, 9]
        flagged = {e["query_id"] for e in entries if e["postmortem"]}
        assert flagged == {9}

    def test_postmortem_map_evicts_oldest_failure_first(self):
        recorder = make_recorder(capacity=2)
        for query_id in range(1, 6):
            recorder.record(finished(query_id, status="error", seconds=0.1))
        assert recorder.postmortems() == [4, 5]
        assert recorder.get(3) is None


class TestPostmortemDumpBudget:
    @staticmethod
    def dump_failures(recorder, query_ids):
        for query_id in query_ids:
            recorder.record(finished(query_id, status="error", seconds=0.1))

    @staticmethod
    def listing(directory):
        live = sorted(
            name for name in os.listdir(directory)
            if name.endswith(".json") and name.startswith("postmortem-q")
        )
        stale = sorted(
            name for name in os.listdir(directory)
            if name.endswith(".json.stale")
        )
        return live, stale

    def test_rejects_nonpositive_max_files(self, tmp_path):
        with pytest.raises(ValueError, match="postmortem_max_files"):
            make_recorder(postmortem_dir=str(tmp_path),
                          postmortem_max_files=0)

    def test_file_count_cap_archives_oldest_to_stale(self, tmp_path):
        directory = str(tmp_path / "pm")
        recorder = make_recorder(
            postmortem_dir=directory, postmortem_max_files=3,
        )
        self.dump_failures(recorder, range(1, 9))
        live, stale = self.listing(directory)
        # Newest three stay live; older dumps moved aside, not deleted.
        assert live == [f"postmortem-q{n}.json" for n in (6, 7, 8)]
        assert len(stale) == 3  # stale pool bounded at max_files too
        assert stale == [f"postmortem-q{n}.json.stale" for n in (3, 4, 5)]

    def test_byte_cap_archives_until_under_budget(self, tmp_path):
        directory = str(tmp_path / "pm")
        recorder = make_recorder(
            postmortem_dir=directory, postmortem_max_files=100,
            postmortem_max_bytes=1,
        )
        self.dump_failures(recorder, range(1, 4))
        live, stale = self.listing(directory)
        # Every dump busts a 1-byte budget, so nothing stays live.
        assert live == []
        assert stale == [f"postmortem-q{n}.json.stale" for n in (1, 2, 3)]

    def test_archived_dumps_still_parse(self, tmp_path):
        directory = str(tmp_path / "pm")
        recorder = make_recorder(
            postmortem_dir=directory, postmortem_max_files=1,
        )
        self.dump_failures(recorder, [1, 2])
        stale_path = os.path.join(directory, "postmortem-q1.json.stale")
        assert json.loads(open(stale_path).read())["query_id"] == 1

    def test_directory_has_a_hard_file_ceiling(self, tmp_path):
        directory = str(tmp_path / "pm")
        recorder = make_recorder(
            postmortem_dir=directory, postmortem_max_files=2,
        )
        self.dump_failures(recorder, range(1, 30))
        live, stale = self.listing(directory)
        assert len(live) + len(stale) <= 4  # 2 × max_files


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


class TestServiceIntegration:
    def test_results_bit_identical_with_recorder_and_profiler_on(
        self, loaded_db
    ):
        with make_service(loaded_db) as plain:
            expected, expected_metrics = plain.join("r", "s")
        with make_service(
            loaded_db, flight_recorder=8, slo={"join": 30.0},
        ) as observed:
            pairs, metrics = observed.join("r", "s")
        assert pairs == expected
        assert (
            metrics.signature_comparisons
            == expected_metrics.signature_comparisons
        )
        assert (
            metrics.replicated_signatures
            == expected_metrics.replicated_signatures
        )

    def test_join_records_full_evidence(self, loaded_db):
        with make_service(
            loaded_db, flight_recorder=8, plan_cache_size=4,
        ) as service:
            service.join("r", "s")
            entries = service.debug_queries()
            assert entries[0]["kind"] == "join"
            assert entries[0]["status"] == "ok"
            detail = service.debug_query(entries[0]["query_id"])
        events = [event["event"] for event in detail["timeline"]]
        assert events[:2] == ["admitted", "attempt"]
        assert "attempt.ok" in events
        assert detail["plan"]["algorithm"] in ("DCJ", "PSJ", "LSJ", "SHJ")
        assert any(line for line in detail["plan"]["explain"])
        span_names = {span["name"] for span in detail["spans"]}
        assert {"query", "attempt", "join"} <= span_names
        assert all(
            span["attrs"].get("query_id") is not None
            for span in detail["spans"] if span["parent_id"] is None
        )
        assert isinstance(detail["registry_delta"], dict)

    def test_failed_query_gets_a_postmortem_with_chaos_timeline(
        self, loaded_db, tmp_path
    ):
        chaos = ChaosInjector(
            ChaosConfig(worker_kill_rate=1.0), seed=3,
            registry=MetricsRegistry(),
        )
        postmortem_dir = str(tmp_path / "pm")
        with make_service(
            loaded_db, chaos=chaos, flight_recorder=8,
            postmortem_dir=postmortem_dir,
        ) as service:
            chaos.arm()
            with pytest.raises(Exception):
                service.join("r", "s")
            chaos.disarm()
            frozen = service._flight.postmortems()
            assert len(frozen) == 1
            postmortem = service.debug_query(frozen[0])
        assert postmortem["status"] == "error"
        assert postmortem["attempts"] >= 3
        events = [event["event"] for event in postmortem["timeline"]]
        assert "chaos" in events
        assert "retry" in events
        assert "attempt.failed" in events
        chaos_events = [
            event for event in postmortem["timeline"]
            if event["event"] == "chaos"
        ]
        assert all(
            event["fault"] == "worker_kill" for event in chaos_events
        )
        files = os.listdir(postmortem_dir)
        assert files == [f"postmortem-q{postmortem['query_id']}.json"]

    def test_untracked_service_has_no_debug_surface(self, loaded_db):
        with make_service(loaded_db) as service:
            service.join("r", "s")
            assert service.debug_queries() is None
            assert service.debug_query(1) is None

    def test_postmortem_dir_implies_recorder(self, loaded_db, tmp_path):
        with make_service(
            loaded_db, postmortem_dir=str(tmp_path / "pm"),
        ) as service:
            service.join("r", "s")
            assert service.debug_queries() is not None
