"""Shared JSONL rotation with fingerprint sidecars (repro.obs.rotation)."""

import json
import os
import threading

import pytest

from repro.errors import ConfigurationError
from repro.obs.drift import drift_line
from repro.obs.rotation import JsonlSink, environment_fingerprint, rotate_jsonl
from repro.service.capture import capture_line


def write_lines(path, records):
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


class TestEnvironmentFingerprint:
    def test_has_the_invalidating_dimensions(self):
        fingerprint = environment_fingerprint()
        assert set(fingerprint) == {"platform", "machine", "python", "cpus"}
        assert fingerprint["cpus"] >= 1

    def test_is_stable_within_a_process(self):
        assert environment_fingerprint() == environment_fingerprint()


class TestRotateJsonl:
    def test_missing_file_writes_only_the_sidecar(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        out = rotate_jsonl(path, wall=lambda: 123.0)
        assert out == {
            "archived": False, "rotated": False, "kept": 0, "dropped": 0,
        }
        assert not os.path.exists(path)
        with open(path + ".meta.json") as handle:
            meta = json.load(handle)
        assert meta["stamped"] == 123.0
        assert meta["fingerprint"] == environment_fingerprint()

    def test_small_file_is_untouched(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        write_lines(path, [{"n": i} for i in range(5)])
        before = open(path).read()
        out = rotate_jsonl(path, max_bytes=1 << 20)
        assert out["rotated"] is False
        assert open(path).read() == before

    def test_oversize_file_keeps_newest(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        write_lines(path, [{"n": i} for i in range(100)])
        out = rotate_jsonl(path, max_bytes=10, keep=7)
        assert out["rotated"] is True
        assert out["kept"] == 7
        assert out["dropped"] == 93
        kept = [json.loads(line) for line in open(path)]
        assert [record["n"] for record in kept] == list(range(93, 100))

    def test_compaction_drops_malformed_lines(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps({"n": 1}) + "\n")
            handle.write("not json\n")
            handle.write(json.dumps([1, 2]) + "\n")  # not an object
            handle.write(json.dumps({"n": 2}) + "\n")
        rotate_jsonl(path, max_bytes=1, keep=100)
        kept = [json.loads(line) for line in open(path)]
        assert kept == [{"n": 1}, {"n": 2}]

    def test_parse_hook_canonicalizes(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        write_lines(path, [{"n": i} for i in range(3)])

        def parse(line):
            record = json.loads(line)
            if record["n"] == 1:
                raise ValueError("rejected")
            return {"n": record["n"] * 10}

        rotate_jsonl(path, max_bytes=1, keep=100, parse=parse)
        kept = [json.loads(line) for line in open(path)]
        assert kept == [{"n": 0}, {"n": 20}]

    def test_foreign_fingerprint_archives_to_stale(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        write_lines(path, [{"n": 1}])
        rotate_jsonl(path, fingerprint={"host": "other-machine"})
        out = rotate_jsonl(path, fingerprint={"host": "this-machine"})
        assert out["archived"] is True
        assert not os.path.exists(path)
        assert os.path.exists(path + ".stale")
        stale = [json.loads(line) for line in open(path + ".stale")]
        assert stale == [{"n": 1}]

    def test_matching_fingerprint_keeps_history(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        write_lines(path, [{"n": 1}])
        rotate_jsonl(path, fingerprint={"host": "same"})
        out = rotate_jsonl(path, fingerprint={"host": "same"})
        assert out["archived"] is False
        assert os.path.exists(path)

    def test_unreadable_meta_is_treated_as_absent(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        write_lines(path, [{"n": 1}])
        with open(path + ".meta.json", "w") as handle:
            handle.write("garbage")
        out = rotate_jsonl(path, fingerprint={"host": "a"})
        assert out["archived"] is False
        assert os.path.exists(path)


class TestDriftDelegation:
    def test_rotate_drift_jsonl_uses_shared_rotation(self, tmp_path):
        path = str(tmp_path / "drift.jsonl")
        record = {
            "timestamp": 0.0, "algorithm": "PSJ", "k": 8,
            "r_size": 10, "s_size": 10,
            "predicted": {}, "observed": {}, "errors": {},
        }
        with open(path, "w") as handle:
            for __ in range(50):
                handle.write(json.dumps(record) + "\n")
            handle.write("not a drift record\n")
        out = rotate_jsonl(path, max_bytes=10, keep=5, parse=drift_line)
        assert out["rotated"] is True
        assert out["kept"] == 5
        assert os.path.exists(path + ".meta.json")
        kept = [json.loads(line) for line in open(path)]
        assert len(kept) == 5
        assert all(line["algorithm"] == "PSJ" for line in kept)


class TestConcurrentWriters:
    """The service appends trace/capture lines from a lock-guarded
    handle, but nothing stops several processes (or a service plus a
    tail -f style tool) from appending to the same history.  Rotation
    must stay safe against whole-line interleavings: every surviving
    record is intact and the newest-K window is honored."""

    def test_interleaved_appends_rotate_cleanly(self, tmp_path):
        import threading

        path = str(tmp_path / "trace.jsonl")
        barrier = threading.Barrier(4)
        errors = []

        def writer(worker: int) -> None:
            try:
                barrier.wait()
                for sequence in range(100):
                    # One os-level write per line: the POSIX append
                    # guarantee the service's locked handle also relies
                    # on, line-buffered so lines land whole.
                    with open(path, "a") as handle:
                        handle.write(json.dumps(
                            {"worker": worker, "sequence": sequence}
                        ) + "\n")
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [
            threading.Thread(target=writer, args=(worker,))
            for worker in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

        out = rotate_jsonl(path, max_bytes=10, keep=50)
        assert out["rotated"] is True
        assert out["kept"] == 50
        kept = [json.loads(line) for line in open(path)]
        assert len(kept) == 50
        # Every surviving line is a whole record with both fields.
        assert all(set(record) == {"worker", "sequence"} for record in kept)
        # Per-writer order survives compaction (newest-K is a suffix of
        # the appended stream, and each writer appended in order).
        for worker in range(4):
            sequences = [
                record["sequence"] for record in kept
                if record["worker"] == worker
            ]
            assert sequences == sorted(sequences)

    def test_rotation_during_live_appends_loses_no_sidecar(self, tmp_path):
        import threading

        path = str(tmp_path / "trace.jsonl")
        write_lines(path, [{"n": index} for index in range(200)])
        stop = threading.Event()

        def churn() -> None:
            while not stop.is_set():
                with open(path, "a") as handle:
                    handle.write(json.dumps({"n": -1}) + "\n")

        thread = threading.Thread(target=churn)
        thread.start()
        try:
            for __ in range(5):
                rotate_jsonl(path, max_bytes=10, keep=20)
        finally:
            stop.set()
            thread.join()
        assert os.path.exists(path + ".meta.json")
        # Whatever survived the concurrent churn still parses per line.
        for line in open(path):
            assert isinstance(json.loads(line), dict)


def drift_record(n):
    return {
        "timestamp": float(n), "algorithm": "DCJ", "k": 4, "r_size": 10,
        "s_size": 10, "predicted": {}, "observed": {}, "errors": {},
    }


def capture_record(n):
    return {
        "schema": 1, "query_id": n, "kind": "probe", "fingerprint": "abc",
        "label": "probe name=s", "params": {"name": "s"}, "status": "ok",
        "seconds": 0.1, "attempts": 0, "digest": {},
        "ledger": {"wall_seconds": 0.1, "cpu_seconds": 0.0, "counters": {}},
    }


#: The three histories the query service keeps, as it opens them: the
#: rotation parse hook, one valid record, and how to number a record.
HISTORIES = {
    "trace": (None, lambda n: {"span_id": n, "name": "query"}, "span_id"),
    "drift": (drift_line, drift_record, "timestamp"),
    "capture": (capture_line, capture_record, "query_id"),
}


@pytest.mark.parametrize("history", sorted(HISTORIES))
class TestJsonlSink:
    """One sink class behind trace, drift and capture histories."""

    @staticmethod
    def read(path, key):
        return [json.loads(line)[key] for line in open(path)]

    def test_append_requires_open_and_refuses_after_close(self, tmp_path,
                                                           history):
        parse, make, __ = HISTORIES[history]
        sink = JsonlSink(str(tmp_path / "h.jsonl"), parse=parse)
        with pytest.raises(ConfigurationError, match="not open"):
            sink.append(make(1))
        sink.open_()
        sink.append(make(1))
        sink.close()
        with pytest.raises(ConfigurationError, match="not open"):
            sink.append(make(2))
        sink.close()  # idempotent

    def test_double_open_is_refused(self, tmp_path, history):
        sink = JsonlSink(str(tmp_path / "h.jsonl"),
                         parse=HISTORIES[history][0])
        sink.open_()
        try:
            with pytest.raises(ConfigurationError, match="already open"):
                sink.open_()
        finally:
            sink.close()

    def test_empty_path_is_refused(self, history):
        with pytest.raises(ConfigurationError, match="non-empty"):
            JsonlSink("", parse=HISTORIES[history][0])

    def test_open_stamps_the_sidecar_and_creates_no_empty_file(
            self, tmp_path, history):
        path = str(tmp_path / "nested" / "h.jsonl")
        sink = JsonlSink(path, parse=HISTORIES[history][0])
        sink.open_()
        sink.close()
        meta = json.loads(open(path + ".meta.json").read())
        assert meta["fingerprint"] == environment_fingerprint()
        assert not os.path.exists(path)

    def test_oversize_history_keeps_newest_and_sheds_malformed(
            self, tmp_path, history):
        parse, make, key = HISTORIES[history]
        path = str(tmp_path / "h.jsonl")
        with open(path, "w") as handle:
            for n in range(50):
                handle.write(json.dumps(make(n)) + "\n")
                if n == 45:
                    handle.write("this is not a record\n")
        sink = JsonlSink(path, max_bytes=64, keep=10, parse=parse)
        rotation = sink.open_()
        sink.append(make(50))
        sink.close()
        assert rotation["rotated"] is True and rotation["kept"] == 10
        assert self.read(path, key) == list(range(40, 51))

    def test_foreign_history_is_archived_not_extended(self, tmp_path,
                                                      history):
        parse, make, key = HISTORIES[history]
        path = str(tmp_path / "h.jsonl")
        write_lines(path, [make(1)])
        with open(path + ".meta.json", "w") as handle:
            json.dump({"fingerprint": dict(environment_fingerprint(),
                                           machine="vax780")}, handle)
        sink = JsonlSink(path, parse=parse)
        rotation = sink.open_()
        sink.append(make(2))
        sink.close()
        assert rotation["archived"] is True
        assert self.read(path + ".stale", key) == [1]
        assert self.read(path, key) == [2]

    def test_concurrent_appends_never_tear_a_line(self, tmp_path, history):
        parse, make, key = HISTORIES[history]
        path = str(tmp_path / "h.jsonl")
        sink = JsonlSink(path, parse=parse)
        sink.open_()
        threads = [
            threading.Thread(target=lambda base=base: [
                sink.append(make(base + n), make(base + n + 1000))
                for n in range(25)
            ])
            for base in (0, 100, 200, 300)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        sink.close()
        numbers = self.read(path, key)  # every line parses
        assert sorted(numbers) == sorted(
            base + n + extra
            for base in (0, 100, 200, 300) for n in range(25)
            for extra in (0, 1000)
        )
        # A multi-record append lands as adjacent lines (one lock hold).
        for index in range(0, len(numbers), 2):
            assert numbers[index + 1] == numbers[index] + 1000
