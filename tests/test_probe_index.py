"""The posting-list probe index against its oracle, the relation scan.

``SetJoinDatabase.probe`` answers a non-empty probe from the relation's
posting index (element → ascending tids, intersected rarest first).  Every
answer here is held to the per-tuple ``frozenset.issubset`` scan of the
stored relation, on relations built to hit the index's edges: empty
relations and sets, chunked records and chunked posting lists, refused duplicate
input tids, values past int64, small pages, and sharded databases.
"""

import random

import numpy as np
import pytest

from repro.database import SetJoinDatabase
from repro.dist import ShardedDatabase
from repro.errors import ConfigurationError, CorruptPageError, StorageError
from repro.storage.btree import BTree
from repro.storage.pager import FileDiskManager
from repro.storage.posting_index import PostingIndex
from repro.storage.relation_store import RelationStore, _chunk_size
from repro.storage.serialization import (
    decode_set,
    decode_set_buffer,
    encode_set,
    encode_set_buffer,
    encode_uvarint,
)


def scan_probe(db, name, query):
    query = frozenset(query)
    return [tid for tid, stored, __ in db.get_store(name).scan()
            if query.issubset(stored)]


def random_rows(seed, count, domain, widest=25, step=3):
    rng = random.Random(seed)
    widest = min(widest, domain)
    return [(tid * step, frozenset(rng.sample(range(domain),
                                              rng.randint(0, widest))))
            for tid in range(count)]


def queries(seed, domain, count=40):
    rng = random.Random(seed)
    out = [[], [0], [domain - 1], [domain + 7], [3, 3, 3], [1, domain + 7],
           list(range(min(domain, 30)))]
    for __ in range(count):
        out.append([rng.randrange(domain + 2)
                    for __ in range(rng.randint(1, 4))])
    return out


def index_of(db, name):
    index_page_id = db.catalog.lookup(name)[2]
    return None if index_page_id is None else PostingIndex(db.pool, index_page_id)


class TestSetBufferCodec:
    """The batch set coder is ``encode_set``/``decode_set`` byte for byte."""

    def test_round_trip_matches_the_scalar_codec(self):
        rng = random.Random(3)
        sets = [sorted(rng.sample(range(1 << 40), rng.randint(0, 40)))
                for __ in range(200)]
        sets += [[0], [(1 << 63) - 1], [0, (1 << 63) - 1], []]
        offsets = np.cumsum([0] + [len(s) for s in sets])
        flat = np.array([e for s in sets for e in s], dtype=np.int64)
        data, bounds = encode_set_buffer(flat, offsets)
        assert data.tobytes() == b"".join(encode_set(s) for s in sets)
        elements, decoded = decode_set_buffer(data, bounds)
        assert decoded.tolist() == offsets.tolist()
        for i, expected in enumerate(sets):
            got = elements[decoded[i]:decoded[i + 1]].tolist()
            assert got == expected
            record = data[bounds[i]:bounds[i + 1]].tobytes()
            assert frozenset(got) == decode_set(record)[0]

    @pytest.mark.parametrize("record", [
        b"\x02\x01",          # count 2, one delta
        b"\x01\x01\x01",      # count 1, two deltas
        b"\x01\x81",          # truncated varint
        b"\x01" + b"\xff" * 9 + b"\x01",  # a value past int64
    ])
    def test_corrupt_records_raise(self, record):
        from repro.errors import SerializationError

        with pytest.raises(SerializationError):
            decode_set_buffer(record, np.array([0, len(record)]))


class TestDifferential:
    @pytest.mark.parametrize("page_size", [512, 4096])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_relations(self, page_size, seed):
        rows = random_rows(seed, 300 + 97 * seed, 60)
        with SetJoinDatabase.open(None, page_size=page_size) as db:
            db.create_relation("S", rows)
            assert index_of(db, "S") is not None
            for query in queries(seed, 60):
                answer = db.probe("S", query)
                assert answer == scan_probe(db, "S", query), query
                assert all(type(tid) is int for tid in answer)

    def test_empty_relation(self):
        with SetJoinDatabase.open(None, page_size=512) as db:
            db.create_relation("E", [])
            assert index_of(db, "E").postings() == 0
            assert db.probe("E", [1]) == []
            assert db.probe("E", []) == []

    def test_empty_sets_match_only_the_empty_probe(self):
        rows = [(1, frozenset()), (2, frozenset({4})), (5, frozenset())]
        with SetJoinDatabase.open(None, page_size=512) as db:
            db.create_relation("S", rows)
            assert db.probe("S", [4]) == [2]
            assert db.probe("S", [4, 4]) == [2]
            assert db.probe("S", []) == [1, 2, 5]
            assert db.probe("S", [9]) == []

    def test_giant_set_whose_record_spans_chunks(self):
        giant = frozenset(range(0, 9000, 3))
        rows = random_rows(5, 120, 90) + [(10_000, giant)]
        with SetJoinDatabase.open(None, page_size=512) as db:
            db.create_relation("S", rows)
            record = encode_set(giant)
            assert len(record) > 3 * _chunk_size(db.pool)
            for query in ([0, 3], [8997], [0, 1], [3, 6, 9, 8997],
                          [0, 9000], list(range(0, 90, 3))):
                assert db.probe("S", query) == scan_probe(db, "S", query)

    def test_posting_list_longer_than_one_entry(self):
        rows = [(tid, frozenset({0, tid % 7 + 1})) for tid in range(3000)]
        with SetJoinDatabase.open(None, page_size=512) as db:
            db.create_relation("S", rows)
            keys = [key for key, __ in index_of(db, "S")._tree.items()
                    if key[:8] == (0).to_bytes(8, "big")]
            assert len(keys) > 1  # element 0's list is chunked
            assert db.probe("S", [0]) == list(range(3000))
            for query in ([0, 3], [3], [0, 1, 2], [2, 3]):
                assert db.probe("S", query) == scan_probe(db, "S", query)

    def test_duplicate_input_tids_index_what_is_stored(self):
        # A repeated tid is refused, nothing stored; the rows without the
        # repeats are stored and indexed as usual.
        rows = [(1, {1, 2}), (4, {2, 3}), (1, {3}), (4, {5})]
        with SetJoinDatabase.open(None, page_size=512) as db:
            pages = db.disk.num_pages
            with pytest.raises(ConfigurationError, match="duplicate tid 1 "):
                db.create_relation("S", rows)
            assert db.relation_names() == [] and db.disk.num_pages == pages
            db.create_relation("S", rows[3:] + rows[2:3])
            assert db.probe("S", [1]) == [] == scan_probe(db, "S", [1])
            assert db.probe("S", [3]) == [1] == scan_probe(db, "S", [3])
            assert db.probe("S", [5]) == [4] == scan_probe(db, "S", [5])
            db.verify_integrity()

    def test_element_past_int64_registers_no_index_and_scans(self):
        wide = 1 << 63
        rows = [(1, {1, wide}), (2, {1, 2}), (3, {wide, 2})]
        with SetJoinDatabase.open(None, page_size=512) as db:
            db.create_relation("W", rows)
            assert index_of(db, "W") is None
            for query in ([wide], [1], [2, wide], [1, 2], [7]):
                assert db.probe("W", query) == scan_probe(db, "W", query)
            assert db.verify_integrity()["postings"] == 0

    def test_tid_past_int64_registers_no_index_and_scans(self):
        wide = 1 << 63
        rows = [(1, {1, 2}), (wide, {2, 3}), (wide + 5, {1, 3})]
        with SetJoinDatabase.open(None, page_size=512) as db:
            db.create_relation("W", rows)
            assert index_of(db, "W") is None
            for query in ([1], [2], [3], [1, 3], [7]):
                assert db.probe("W", query) == scan_probe(db, "W", query)

    def test_query_element_past_int64_on_an_indexed_relation(self):
        with SetJoinDatabase.open(None, page_size=512) as db:
            db.create_relation("S", random_rows(7, 50, 20))
            assert db.probe("S", [1 << 63]) == []
            assert db.probe("S", [1, 1 << 64]) == []
            assert db.probe("S", [-1]) == []

    def test_non_integer_elements_are_rejected(self):
        with SetJoinDatabase.open(None, page_size=512) as db:
            db.create_relation("S", random_rows(7, 50, 20))
            with pytest.raises(ConfigurationError):
                db.probe("S", [1.5])
            assert db.probe("S", [np.int64(3)]) == scan_probe(db, "S", [3])

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_sharded_database(self, shards):
        rows = random_rows(11, 400, 50)
        with SetJoinDatabase.open(None) as single, \
                ShardedDatabase.open(None, shards=shards) as sharded:
            single.create_relation("S", rows)
            sharded.create_relation("S", rows)
            for shard in sharded.shards:
                assert index_of(shard.db, "S") is not None
            for query in queries(shards, 50):
                assert sharded.probe("S", query) == scan_probe(
                    single, "S", query), query

    def test_the_index_path_never_scans(self, monkeypatch):
        with SetJoinDatabase.open(None, page_size=512) as db:
            rows = random_rows(13, 200, 40)
            db.create_relation("S", rows)
            expected = {tuple(q): scan_probe(db, "S", q)
                        for q in queries(13, 40) if q}

            def refuse(self):
                raise AssertionError("the indexed probe scanned the relation")

            monkeypatch.setattr(RelationStore, "scan_batches", refuse)
            monkeypatch.setattr(RelationStore, "scan", refuse)
            for query, answer in expected.items():
                assert db.probe("S", list(query)) == answer

    def test_index_probe_reads_fewer_pages_than_the_scan(self):
        with SetJoinDatabase.open(None) as db:
            db.create_relation("S", random_rows(21, 523, 60))
            reads = []
            for walk in (lambda: list(db.get_store("S").scan()),
                         lambda: db.probe("S", [3])):
                db.pool.flush_all()
                db.pool.drop_all()
                before = db.disk.stats.snapshot()
                walk()
                reads.append(db.disk.stats.delta(before).page_reads)
            assert 0 < reads[1] < reads[0]


class TestLifecycle:
    def test_create_then_drop_frees_both_trees(self):
        with SetJoinDatabase.open(None, page_size=512) as db:
            db.create_relation("keep", random_rows(1, 40, 30))
            live = db.disk.num_live_pages
            db.create_relation("gone", random_rows(2, 300, 30))
            meta, __, index = db.catalog.lookup("gone")
            pages = (len(list(BTree(db.pool, meta).page_ids()))
                     + len(list(BTree(db.pool, index).page_ids())) + 2)
            assert db.disk.num_live_pages == live + pages
            db.drop_relation("gone")
            assert db.disk.num_live_pages == live

    def test_failed_create_leaves_no_index_pages(self):
        with SetJoinDatabase.open(None, page_size=512) as db:
            db.create_relation("keep", random_rows(1, 40, 30))
            pages = db.disk.num_pages

            def poisoned():
                yield from random_rows(2, 30, 30)
                raise RuntimeError("ingest died")

            with pytest.raises(RuntimeError):
                db.create_relation("doomed", poisoned())
            assert db.disk.num_pages == pages
            assert db.relation_names() == ["keep"]


class TestOldFilesAndIntegrity:
    @staticmethod
    def strip_index(db, name):
        """Rewrite ``name``'s catalog record in the two-field format of a
        database written before posting indexes, freeing the index."""
        meta, size, index = db.catalog.lookup(name)
        with db._atomic():
            BTree(db.pool, index).destroy()
            db.catalog._tree.insert(
                name.encode(), encode_uvarint(meta) + encode_uvarint(size))

    def test_two_field_record_opens_probes_by_scan_and_joins(self, tmp_path):
        from repro.data.workloads import uniform_workload

        lhs, rhs = uniform_workload(
            60, 90, 4, 10, domain_size=40, seed=4, planted_pairs=3
        ).materialize()
        path = str(tmp_path / "old.db")
        with SetJoinDatabase.open(path, page_size=512) as db:
            db.create_relation("R", lhs)
            db.create_relation("S", rhs)
            before = db.join("R", "S", algorithm="DCJ", num_partitions=4)
            probes = queries(4, 40)
            answers = [db.probe("S", query) for query in probes]
            self.strip_index(db, "S")
        with SetJoinDatabase.open(path, page_size=512) as db:
            assert db.catalog.lookup("S")[2] is None
            assert [db.probe("S", query) for query in probes] == answers
            pairs, metrics = db.join("R", "S", algorithm="DCJ",
                                     num_partitions=4)
            assert pairs == before[0]
            assert (metrics.signature_comparisons,
                    metrics.replicated_signatures, metrics.candidates) == (
                before[1].signature_comparisons,
                before[1].replicated_signatures, before[1].candidates)
            report = db.verify_integrity()
            assert report["postings"] == sum(len(row.elements) for row in lhs)
            db.drop_relation("S")
            assert db.relation_names() == ["R"]

    def test_verify_counts_every_posting(self):
        rows = random_rows(8, 250, 40)
        with SetJoinDatabase.open(None, page_size=512) as db:
            db.create_relation("S", rows)
            report = db.verify_integrity()
            assert report["postings"] == sum(len(s) for __, s in rows)

    def test_verify_rejects_a_miscounted_index(self):
        with SetJoinDatabase.open(None, page_size=512) as db:
            db.create_relation("S", [(1, {4, 5}), (2, {4})])
            index = index_of(db, "S")
            with db._atomic():
                key = (4).to_bytes(8, "big") + (0).to_bytes(4, "big")
                index._tree.insert(key, encode_set([1]))
            with pytest.raises(StorageError, match="postings"):
                db.verify_integrity()

    def test_verify_detects_a_flipped_byte_in_every_index_page(self, tmp_path):
        path = str(tmp_path / "flip.db")
        with SetJoinDatabase.open(path, page_size=512) as db:
            db.create_relation("S", random_rows(9, 200, 40))
            index = index_of(db, "S")
            pages = [index.meta_page_id, *index._tree.page_ids()]
        assert len(pages) > 3
        for page_id in pages:
            disk = FileDiskManager(path, 512, fsync=False)
            raw = disk._read_physical(page_id)
            torn = bytearray(raw)
            torn[len(raw) // 2] ^= 0x04
            disk._write_physical(page_id, bytes(torn))
            disk.close()
            with SetJoinDatabase.open(path, page_size=512) as db:
                with pytest.raises(CorruptPageError):
                    db.verify_integrity()
            disk = FileDiskManager(path, 512, fsync=False)
            disk._write_physical(page_id, raw)
            disk.close()
