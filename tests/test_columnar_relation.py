"""One columnar relation: ``Relation`` is ``(tids, elements, offsets)``.

The generators fill the arrays with the draws they always made (every
generated relation's digest is pinned), the store encodes the arrays into
the page images the row loader wrote, every join path reads the arrays
and never builds a row, and the constructor refuses what no join can
store before anything is stored.
"""

import hashlib
import re

import numpy as np
import pytest

from repro.core.api import containment_join
from repro.core.operator import TESTBED_FILL, Testbed
from repro.core.sets import Relation, SetTuple, containment_pairs_nested_loop
from repro.data.workloads import (
    accuracy_workload,
    biochemical_workload,
    case_study,
    text_corpus_workload,
    uniform_workload,
)
from repro.database import SetJoinDatabase
from repro.dist import ShardedDatabase
from repro.errors import ConfigurationError
from repro.storage.buffer import BufferPool
from repro.storage.pager import InMemoryDiskManager
from repro.storage.relation_store import RelationStore


def digest(relation) -> str:
    """Every row, tid and ascending elements, through the row view."""
    h = hashlib.sha256()
    for row in relation:
        h.update(b"%d:%s;" % (
            row.tid, ",".join(map(str, sorted(row.elements))).encode()))
    return h.hexdigest()[:16]


def _element_kind(kind):
    return accuracy_workload(kind, "uniform", size=150, theta_r=6,
                             theta_s=12, domain_size=400, seed=3)


def _cardinality_kind(kind):
    return accuracy_workload("uniform", kind, size=150, theta_r=6,
                             theta_s=12, domain_size=400, seed=4)


#: (workload, R digest, S digest), computed from the generators' draws
#: when a relation was still a list of ``SetTuple`` objects.
GENERATED = {
    "elements-uniform": (_element_kind("uniform"), "e14c4aa634badd1a", "83756b0855386817"),
    "elements-zipf": (_element_kind("zipf"), "e59d0e37af04d13c", "c4fdde13cbfe4b4f"),
    "elements-selfsimilar": (_element_kind("selfsimilar"), "283530582724e167", "798b6e8ade9c3ce0"),
    "elements-normal": (_element_kind("normal"), "a780d991fb466da2", "dce9e32dec1a56f5"),
    "elements-clustered": (_element_kind("clustered"), "524caeb4ac2fb433", "dd36318aea63cd3c"),
    "cardinality-constant": (_cardinality_kind("constant"), "3cd6d401abe62664", "846510d65575733a"),
    "cardinality-normal": (_cardinality_kind("normal"), "489d864d867065bb", "e21c17d403991d38"),
    "cardinality-zipf": (_cardinality_kind("zipf"), "92647e9b79aab082", "52367be62453d9b0"),
    "cardinality-bimodal": (_cardinality_kind("bimodal"), "84d679fcfe96ce82", "537774fed8bf25d8"),
    "planted-case-study": (case_study(scale=0.02, seed=7), "ff24d0ea7e29aa03", "84cad99deb34a4f2"),
    "planted-uniform": (
        uniform_workload(200, 300, 5, 20, domain_size=150, seed=11, planted_pairs=40),
        "48121c596537b7e4", "68600d0f67dbedec"),
    "planted-text": (text_corpus_workload(60, 90, seed=2, planted_pairs=7),
                     "c98dc3637e066eee", "4d6f54983266b7af"),
    "planted-biochemical": (biochemical_workload(30, 12, 800, seed=5, planted_pairs=4),
                            "76202f9d5df8f994", "5c09c38636bc66fd"),
}


@pytest.mark.parametrize("case", sorted(GENERATED))
def test_generated_relations_keep_their_draws(case):
    workload, r_digest, s_digest = GENERATED[case]
    lhs, rhs = workload.materialize()
    assert (digest(lhs), digest(rhs)) == (r_digest, s_digest)
    for relation in (lhs, rhs):
        tids, elements, offsets = relation.arrays
        assert tids.dtype == elements.dtype == offsets.dtype == np.int64
        rows = list(relation)
        assert elements.tolist() == [e for row in rows for e in sorted(row.elements)]
        assert np.diff(offsets).tolist() == [row.cardinality for row in rows]


def _pages(disk) -> list[bytes]:
    return [disk._read_physical(page) for page in range(disk.num_pages)]


def test_testbed_pages_match_the_row_loader_and_the_pin():
    lhs, rhs = GENERATED["planted-uniform"][0].materialize()
    with Testbed(page_size=1024, buffer_pages=64) as testbed:
        testbed.load(lhs, rhs, payload_size=8)
        loaded = _pages(testbed.disk)
    pool = BufferPool(InMemoryDiskManager(1024), capacity=64)
    for relation, name in ((lhs, "R"), (rhs, "S")):
        rows = [(row.tid, frozenset(row.elements)) for row in relation]
        RelationStore.create(pool, rows, 8, name, TESTBED_FILL)
    pool.flush_all()
    assert loaded == _pages(pool.disk)
    # The page images the row-object loader wrote for this input.
    assert len(loaded) == 27
    assert hashlib.sha256(b"".join(loaded)).hexdigest()[:16] == "ee8d886a64bbf3aa"


WIDE = 2**63

ADVERSARIAL = {
    "empty-relation": ([], [(0, {1}), (1, set())]),
    "empty-sets": ([(0, set()), (1, {3}), (2, set())],
                   [(0, set()), (1, {3, 4}), (5, set())]),
    "tid-0": ([(0, {1, 2})], [(0, {1, 2, 3}), (9, {2})]),
    "wide-tids": ([(WIDE, {1}), (2**64 - 1, {1, 2}), (4, {2})],
                  [(WIDE + 7, {1, 2}), (0, {2, 5}), (2**64 - 1, {1})]),
    "wide-elements": ([(0, {WIDE}), (1, {1, 2**64 - 1}), (2, {1})],
                      [(0, {1, WIDE, 2**64 - 1}), (1, {1}), (2, {WIDE + 3})]),
    "giant-set": ([(0, set(range(0, 30_000, 3))), (1, {3, 6}), (2, {1})],
                  [(0, set(range(30_000))), (1, {3, 6, 9})]),
    "tids-out-of-order": ([(9, {1}), (2, {1, 2}), (5, {7}), (0, set())],
                          [(7, {1, 2}), (3, {7, 1}), (1, {1})]),
}


@pytest.mark.parametrize("algorithm, k", [("auto", None), ("DCJ", 4),
                                          ("PSJ", 4), ("LSJ", 4)])
@pytest.mark.parametrize("case", sorted(ADVERSARIAL))
def test_adversarial_relations_join_like_the_nested_loop(case, algorithm, k):
    r_rows, s_rows = ADVERSARIAL[case]
    lhs, rhs = Relation(r_rows, "R"), Relation(s_rows, "S")
    expected = containment_pairs_nested_loop(Relation(r_rows), Relation(s_rows))
    pairs, __ = containment_join(lhs, rhs, algorithm, k)
    assert pairs == expected
    if case == "wide-tids":
        assert lhs.arrays[0].dtype == object
    if case == "wide-elements":
        assert lhs.arrays[1].dtype == object


def test_a_fresh_relation_joins_without_a_row(monkeypatch):
    lhs, rhs = GENERATED["planted-uniform"][0].materialize()
    built = []
    original = SetTuple.__post_init__

    def counted(self):
        built.append(self.tid)
        original(self)

    monkeypatch.setattr(SetTuple, "__post_init__", counted)
    pairs, metrics = containment_join(lhs, rhs)
    assert pairs and not built
    for relation in (lhs, rhs):
        size = sum(array.nbytes for array in relation.arrays)
        assert size <= 8 * len(relation.arrays[1]) + 24 * len(relation)
    # Rows are built on first use and kept: a second scan builds none.
    assert len(list(rhs)) == len(rhs) and len(built) == len(rhs)
    assert [row.tid for row in rhs] == rhs.tids() and len(built) == len(rhs)


def test_added_rows_reach_the_arrays():
    relation = Relation.from_sets([{3, 1}, {2}], name="R")
    relation.add(SetTuple(7, {5, 4}))
    assert [a.tolist() for a in relation.arrays] == [
        [0, 1, 7], [1, 3, 2, 4, 5], [0, 2, 3, 5]]
    with pytest.raises(ConfigurationError, match="duplicate tid 7"):
        relation.add(SetTuple(7, {1}))
    with pytest.raises(ConfigurationError, match="tuple id 8 holds 'x'"):
        relation.add(SetTuple(8, {"x"}))
    assert len(relation) == 3 and 7 in relation and relation[7].elements == {4, 5}


def test_from_arrays_sorts_each_set_and_checks_its_bounds():
    relation = Relation.from_arrays([4, 2], [9, 3, 3, 1], [0, 3, 4], "R")
    assert [a.tolist() for a in relation.arrays] == [[4, 2], [3, 9, 1], [0, 2, 3]]
    for offsets in ([0, 3], [1, 3, 4], [0, 3, 5], [0, 4, 3]):
        with pytest.raises(ConfigurationError, match="offsets"):
            Relation.from_arrays([4, 2], [9, 3, 3, 1], offsets)
    with pytest.raises(ConfigurationError, match="tuple id -2 is not"):
        Relation.from_arrays(np.array([4, -2]), np.array([1]), [0, 1, 1])
    with pytest.raises(ConfigurationError, match="tuple id 2 holds -1,"):
        Relation.from_arrays(np.array([4, 2]), np.array([1, -1]), [0, 1, 2])
    wide = Relation.from_arrays(np.array([2**64 - 1], dtype=np.uint64),
                                np.array([5], dtype=np.uint64), [0, 1])
    assert wide.arrays[0].dtype == object and wide.tids() == [2**64 - 1]


#: A relation no join can store, and the tid the error names.
REFUSED = {
    "float-tid": ([(1.5, {1})], "tuple id 1.5 "),
    "bool-tid": ([(True, {1})], "tuple id True "),
    "tid-2**64": ([(2**64, {1})], f"tuple id {2**64} "),
    "negative-tid": ([(-1, {1})], "tuple id -1 "),
    "element-2**70": ([(0, {1}), (3, {2**70})], f"tuple id 3 holds {2**70}"),
    "string-element": ([(4, {"a"})], "tuple id 4 holds 'a'"),
    "bool-element": ([(4, [True])], "tuple id 4 holds True"),
    "negative-element": ([(0, set()), (6, {2, -3})], "tuple id 6 holds -3"),
    "duplicate-tid": ([(2, {1}), (5, {1}), (2, {3})], "duplicate tid 2 "),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_the_constructor_refuses_what_no_join_can_store(case):
    rows, message = REFUSED[case]
    rhs = Relation.from_sets([{1, 2, 3}, {2, 3, 4, 5}])
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        containment_join(Relation(rows, "R"), rhs, "DCJ", 2)


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_a_refused_relation_stores_nothing(case):
    rows, message = REFUSED[case]
    with SetJoinDatabase.open() as db:
        pages = db.disk.num_pages
        with pytest.raises(ConfigurationError):
            db.create_relation("R", iter(rows))
        assert db.relation_names() == [] and db.disk.num_pages == pages
    with ShardedDatabase.open(None, shards=2) as db:
        with pytest.raises(ConfigurationError):
            db.create_relation("R", rows)
        assert db.relation_names() == []


def test_sharded_create_splits_the_arrays_by_home():
    lhs, __ = GENERATED["planted-uniform"][0].materialize()
    with ShardedDatabase.open(None, shards=3) as db:
        assert db.create_relation("R", lhs) == len(lhs)
        assert digest(db.read_relation("R")) == digest(
            Relation.from_mapping({row.tid: row.elements for row in lhs}))
