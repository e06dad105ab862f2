"""Crash consistency: WAL unit tests, recovery, and full crash sweeps.

The acceptance bar for the reliability layer:

* crashing ``create_relation`` at *every* physical I/O index and
  reopening always yields either the old or the new catalog state, with
  all checksums valid;
* a single flipped bit in any live page raises ``CorruptPageError`` on
  the next read of that page.
"""

import os

import pytest

from repro.errors import ConfigurationError, CorruptPageError, WALError
from repro.storage.faults import CrashSimulator, FaultInjectingDiskManager
from repro.storage.pager import FileDiskManager, InMemoryDiskManager
from repro.storage.wal import WAL_MAGIC, WALDiskManager, WriteAheadLog


def rows(count, start=0, width=5):
    return [(tid, set(range(tid, tid + width))) for tid in range(start, start + count)]


#: Probes every crash-sweep check answers from each relation's posting
#: index and holds to the scan.
PROBES = ([3], [52, 54], [5, 6, 7], [104], [0, 999], [14, 15, 16, 17, 18])


def check_probes(db):
    """Every cataloged relation has a posting index whose answers are the
    scan's."""
    for name in db.relation_names():
        assert db.catalog.lookup(name)[2] is not None, name
        stored = [(tid, elements) for tid, elements, __
                  in db.get_store(name).scan()]
        for query in PROBES:
            assert db.probe(name, query) == [
                tid for tid, elements in stored if set(query) <= elements
            ], (name, query)


# ----------------------------------------------------------------------
# WriteAheadLog unit tests
# ----------------------------------------------------------------------


class TestWriteAheadLog:
    def test_commit_recover_roundtrip(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path, page_size=256)
        frames = {3: b"\x03" * 240, 1: b"\x01" * 240}
        lsns = wal.log_transaction(frames)
        assert sorted(lsns) == [1, 3]
        assert len(set(lsns.values())) == 2  # distinct, monotonic LSNs
        wal.close()

        reopened = WriteAheadLog(path, page_size=256)
        recovered = reopened.recover()
        assert {pid: img for pid, (img, __) in recovered.items()} == frames
        for pid, (__, lsn) in recovered.items():
            assert lsn == lsns[pid]
        reopened.close()

    def test_frames_without_commit_are_discarded(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path, page_size=256)
        wal.log_transaction({0: b"\xaa" * 240})
        committed_size = wal.size_bytes
        # Append a frame by hand with no COMMIT after it: a crash between
        # the frame append and the commit append.
        import struct
        import zlib

        body = struct.pack(">BQQI", 0x01, 9, 99, 240) + b"\xbb" * 240
        with open(path, "ab") as handle:
            handle.write(body + zlib.crc32(body).to_bytes(4, "big"))
        wal.kill()

        reopened = WriteAheadLog(path, page_size=256)
        recovered = reopened.recover()
        assert set(recovered) == {0}  # only the committed frame
        assert reopened.size_bytes > committed_size
        reopened.close()

    def test_torn_tail_is_discarded(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path, page_size=256)
        wal.log_transaction({0: b"\xaa" * 240})
        wal.log_transaction({1: b"\xbb" * 240})
        wal.close()
        # Tear the file mid-way through the second transaction's records.
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 100)

        reopened = WriteAheadLog(path, page_size=256)
        recovered = reopened.recover()
        assert set(recovered) == {0}
        reopened.close()

    def test_corrupt_record_stops_the_scan(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path, page_size=256)
        wal.log_transaction({0: b"\xaa" * 240})
        wal.log_transaction({1: b"\xbb" * 240})
        wal.close()
        # Flip one bit inside the second transaction's frame payload.
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.seek(size - 50)
            byte = handle.read(1)[0]
            handle.seek(size - 50)
            handle.write(bytes([byte ^ 0x10]))

        reopened = WriteAheadLog(path, page_size=256)
        assert set(reopened.recover()) == {0}
        reopened.close()

    def test_reset_empties_the_log(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path, page_size=256)
        wal.log_transaction({0: b"\xaa" * 240})
        assert wal.size_bytes > 0
        wal.reset()
        assert wal.size_bytes == 0
        assert wal.recover() == {}
        wal.close()

    def test_in_memory_log_is_ephemeral(self):
        wal = WriteAheadLog(None, page_size=256)
        wal.log_transaction({0: b"\xaa" * 240})
        assert wal.size_bytes > 0
        assert wal.recover() == {}  # nothing survives, by design
        wal.reset()
        assert wal.size_bytes == 0
        wal.close()

    def test_page_size_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "log.wal")
        WriteAheadLog(path, page_size=256).close()
        other = WriteAheadLog(path, page_size=512)
        with pytest.raises(WALError):
            other.recover()
        other.close()

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "log.wal")
        with open(path, "wb") as handle:
            handle.write(b"NOTAWAL\x00" + bytes(8))
        wal = WriteAheadLog(path, page_size=256)
        with pytest.raises(WALError):
            wal.recover()
        wal.close()

    def test_magic_constant_shape(self):
        assert len(WAL_MAGIC) == 8


# ----------------------------------------------------------------------
# WALDiskManager unit tests
# ----------------------------------------------------------------------


class TestWALDiskManager:
    def test_passthrough_outside_transaction(self):
        inner = InMemoryDiskManager(256)
        disk = WALDiskManager(inner)
        page_id = disk.allocate_page()
        disk.write_page(page_id, b"\x11" * disk.payload_size)
        assert inner.read_page(page_id) == b"\x11" * disk.payload_size

    def test_buffered_until_commit(self):
        inner = InMemoryDiskManager(256)
        disk = WALDiskManager(inner)
        disk.begin()
        page_id = disk.allocate_page()
        disk.write_page(page_id, b"\x22" * disk.payload_size)
        # Nothing has reached the inner store yet.
        assert inner.num_pages == 0
        assert disk.read_page(page_id) == b"\x22" * disk.payload_size
        disk.commit()
        assert inner.num_pages == 1
        assert inner.read_page(page_id) == b"\x22" * disk.payload_size

    def test_rollback_discards_everything(self):
        inner = InMemoryDiskManager(256)
        disk = WALDiskManager(inner)
        keep = disk.allocate_page()
        disk.write_page(keep, b"\x33" * disk.payload_size)
        disk.begin()
        grown = disk.allocate_page()
        disk.write_page(grown, b"\x44" * disk.payload_size)
        disk.write_page(keep, b"\x55" * disk.payload_size)
        disk.rollback()
        assert disk.num_pages == 1
        assert disk.read_page(keep) == b"\x33" * disk.payload_size

    def test_rollback_restores_free_list(self):
        inner = InMemoryDiskManager(256)
        disk = WALDiskManager(inner)
        page_id = disk.allocate_page()
        disk.free_page(page_id)
        disk.begin()
        reused = disk.allocate_page()
        assert reused == page_id
        disk.rollback()
        assert disk.num_free_pages == 1
        assert disk.allocate_page() == page_id

    def test_nested_begin_rejected(self):
        disk = WALDiskManager(InMemoryDiskManager(256))
        disk.begin()
        with pytest.raises(WALError):
            disk.begin()

    def test_commit_without_begin_rejected(self):
        disk = WALDiskManager(InMemoryDiskManager(256))
        with pytest.raises(WALError):
            disk.commit()
        with pytest.raises(WALError):
            disk.rollback()

    def test_commit_replays_after_crash(self, tmp_path):
        db_path = str(tmp_path / "data.db")
        wal_path = db_path + ".wal"
        inner = FileDiskManager(db_path, 256, fsync=False)
        disk = WALDiskManager(inner, WriteAheadLog(wal_path, 256, fsync=False))
        disk.begin()
        page_id = disk.allocate_page()
        payload = b"\x66" * disk.payload_size
        disk.write_page(page_id, payload)
        # Log the transaction but crash before the checkpoint by writing
        # the WAL directly and killing the stack.
        assert disk.wal is not None
        disk.wal.log_transaction({page_id: payload})
        disk.kill()
        assert os.path.getsize(db_path) == 0  # checkpoint never ran

        recovered = WALDiskManager(
            FileDiskManager(db_path, 256, fsync=False),
            WriteAheadLog(wal_path, 256, fsync=False),
        )
        assert recovered.num_pages == 1
        assert recovered.read_page(page_id) == payload
        assert recovered.wal.size_bytes == 0  # log reset after replay
        recovered.close()

    def test_checkpoint_failure_wedges(self, tmp_path):
        db_path = str(tmp_path / "data.db")
        fault = FaultInjectingDiskManager(
            FileDiskManager(db_path, 256, fsync=False, buffering=0)
        )
        wal = WriteAheadLog(db_path + ".wal", 256, fsync=False)
        disk = WALDiskManager(fault, wal)
        disk.begin()
        page_id = disk.allocate_page()
        payload = b"\x77" * disk.payload_size
        disk.write_page(page_id, payload)
        # All inner-disk writes fail; the WAL (not routed through the
        # fault layer here) accepts the commit record first, so the
        # failure lands *after* the commit point.
        fault.fail_after(0, ops=("write",))
        with pytest.raises(Exception):
            disk.commit()
        assert disk.wedged
        with pytest.raises(WALError):
            disk.begin()
        with pytest.raises(WALError):
            disk.read_page(page_id)
        disk.kill()

        # Reopening finishes the redo from the WAL.
        recovered = WALDiskManager(
            FileDiskManager(db_path, 256, fsync=False),
            WriteAheadLog(db_path + ".wal", 256, fsync=False),
        )
        assert recovered.read_page(page_id) == payload
        recovered.close()


# ----------------------------------------------------------------------
# Database-level atomicity (no crash, just exceptions)
# ----------------------------------------------------------------------


class TestDatabaseAtomicity:
    def test_failed_create_rolls_back(self, tmp_path):
        from repro.database import SetJoinDatabase

        path = str(tmp_path / "atomic.db")
        with SetJoinDatabase.open(path, page_size=512) as db:
            db.create_relation("base", rows(20))
            pages_before = db.disk.num_pages

            def poisoned():
                yield from rows(5)
                raise RuntimeError("ingest died")

            with pytest.raises(RuntimeError):
                db.create_relation("doomed", poisoned())
            assert db.relation_names() == ["base"]
            assert db.disk.num_pages == pages_before
            # The database remains fully usable.
            db.create_relation("after", rows(10))
            assert sorted(db.relation_names()) == ["after", "base"]

        with SetJoinDatabase.open(path, page_size=512) as db:
            assert sorted(db.relation_names()) == ["after", "base"]
            db.verify_integrity()

    def test_in_memory_database_is_exception_atomic(self):
        from repro.database import SetJoinDatabase

        with SetJoinDatabase.open() as db:
            db.create_relation("base", rows(20))

            def poisoned():
                yield from rows(5)
                raise RuntimeError("ingest died")

            with pytest.raises(RuntimeError):
                db.create_relation("doomed", poisoned())
            assert db.relation_names() == ["base"]
            assert len(db.read_relation("base")) == 20

    def test_duplicate_name_still_rejected(self, tmp_path):
        from repro.database import SetJoinDatabase

        with SetJoinDatabase.open(str(tmp_path / "dup.db")) as db:
            db.create_relation("r", rows(5))
            with pytest.raises(ConfigurationError):
                db.create_relation("r", rows(5))


# ----------------------------------------------------------------------
# Full crash sweeps (the acceptance criterion)
# ----------------------------------------------------------------------


class TestCrashSweeps:
    def test_create_relation_crash_sweep(self, tmp_path):
        sim = CrashSimulator(tmp_path)

        def prepare(db):
            db.create_relation("base", rows(15))

        def operation(db):
            db.create_relation("fresh", rows(15, start=100))

        def check(db, crashed):
            names = sorted(db.relation_names())
            assert names in (["base"], ["base", "fresh"])
            if not crashed:
                assert names == ["base", "fresh"]
            if "fresh" in names:
                assert len(db.read_relation("fresh")) == 15
            assert len(db.read_relation("base")) == 15
            check_probes(db)
            db.verify_integrity()

        assert sim.sweep(prepare, operation, check) > 0

    def test_drop_relation_crash_sweep(self, tmp_path):
        sim = CrashSimulator(tmp_path)

        def prepare(db):
            db.create_relation("keep", rows(10))
            db.create_relation("victim", rows(10, start=50))

        def operation(db):
            from repro.storage.btree import BTree

            meta, __, index = db.catalog.lookup("victim")
            pages = sum(len(list(BTree(db.pool, tree).page_ids())) + 1
                        for tree in (meta, index))
            free = db.disk.num_free_pages
            db.drop_relation("victim")
            # Every page of the relation and of its index is unreachable.
            assert db.disk.num_free_pages == free + pages

        def check(db, crashed):
            names = sorted(db.relation_names())
            assert names in (["keep"], ["keep", "victim"])
            if not crashed:
                assert names == ["keep"]
            assert len(db.read_relation("keep")) == 10
            if "victim" in names:
                assert len(db.read_relation("victim")) == 10
            check_probes(db)
            db.verify_integrity()

        assert sim.sweep(prepare, operation, check) > 0

    def test_join_crash_never_corrupts_catalog(self, tmp_path):
        # Temporary partition data is deliberately unlogged; a crash mid
        # join may leak pages but must never damage the stored relations.
        sim = CrashSimulator(tmp_path, buffer_pages=8)

        def prepare(db):
            db.create_relation("r", rows(12, width=3))
            db.create_relation("s", rows(12, width=6))

        def operation(db):
            db.join("r", "s", algorithm="PSJ", num_partitions=4)

        expected = {
            (r_tid, s_tid)
            for r_tid, r_set in rows(12, width=3)
            for s_tid, s_set in rows(12, width=6)
            if r_set <= s_set
        }

        def check(db, crashed):
            assert sorted(db.relation_names()) == ["r", "s"]
            db.verify_integrity()
            pairs, __ = db.join("r", "s", algorithm="PSJ", num_partitions=4)
            assert pairs == expected

        assert sim.sweep(prepare, operation, check, max_points=40) > 0


class TestCorruptionDetection:
    def test_any_flipped_bit_in_any_live_page_is_detected(self, tmp_path):
        """The literal acceptance criterion: corrupt each live page in
        turn (one bit each) and require CorruptPageError on read."""
        from repro.database import SetJoinDatabase

        path = str(tmp_path / "victim.db")
        with SetJoinDatabase.open(path, page_size=512) as db:
            db.create_relation("r", rows(30))
            num_pages = db.disk.num_pages
        assert num_pages > 2

        for page_id in range(num_pages):
            disk = FileDiskManager(path, 512, fsync=False)
            if page_id in disk._free_pages:
                disk.close()
                continue
            raw = disk._read_physical(page_id)
            bit = (page_id * 997) % (len(raw) * 8)  # vary the bit position
            torn = bytearray(raw)
            torn[bit // 8] ^= 1 << (bit % 8)
            disk._write_physical(page_id, bytes(torn))
            disk.close()

            # Catalog pages fail at open itself; others at verify time.
            with pytest.raises(CorruptPageError):
                db = SetJoinDatabase.open(path, page_size=512)
                try:
                    db.verify_integrity()
                finally:
                    db.close()

            # Undo the flip so the next iteration starts from a clean file.
            disk = FileDiskManager(path, 512, fsync=False)
            disk._write_physical(page_id, raw)
            disk.close()

    def test_verify_integrity_passes_on_clean_database(self, tmp_path):
        from repro.database import SetJoinDatabase

        path = str(tmp_path / "clean.db")
        with SetJoinDatabase.open(path, page_size=512) as db:
            db.create_relation("r", rows(30))
        with SetJoinDatabase.open(path, page_size=512) as db:
            report = db.verify_integrity()
            assert report["relations"] == 1
            assert report["tuples"] == 30
            assert report["pages_read"] > 0
