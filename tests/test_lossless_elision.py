"""Lossless signatures: when every element of R and S is below
``signature_bits``, the signature is the set, every candidate is a result
and no join path verifies (DESIGN.md §1.20).

A differential suite: boundary inputs — the largest element at the width
and one past it, widths around byte and word edges, domain 1, empty and
duplicate sets, a record stored with a repeated element, an element past
int64 — crossed with every join path and four partitioners, each held to
brute force and to the elision's accounting.  Lossless runs execute with
``operator.verify_pairs`` patched to raise, so any path that still
verifies fails; a second test patches it on the lossy inputs and demands
that every path reaches it.
"""

import random

import pytest

from repro.core import operator
from repro.core.modulo import make_partitioner
from repro.core.operator import SetContainmentJoin, Testbed
from repro.database import SetJoinDatabase
from repro.dist import ShardedDatabase
from repro.parallel.executor import ProcessBackend
from repro.storage.relation_store import RelationStore, _chunk_key, _chunk_size
from repro.storage.serialization import encode_tuple_record

process_available = ProcessBackend(2).available()


class VerificationRan(Exception):
    pass


def _refuse(*args, **kwargs):
    raise VerificationRan


# ----------------------------------------------------------------------
# Inputs: (R rows, S rows, signature bits, raw records)
# ----------------------------------------------------------------------

def _near_width(bits: int, lossless: bool):
    """Random sets below ``bits``, largest element ``bits - 1`` on both
    sides; the lossy twin adds the element ``bits`` to one S set, which
    some R set is still a candidate of."""
    rng = random.Random(bits)

    def sets(count, most):
        return [
            (tid, rng.sample(range(bits), rng.randint(0, min(most, bits))))
            for tid in range(count)
        ]

    r_rows, s_rows = sets(20, 3), sets(25, 8)
    r_rows.append((20, [bits - 1]))
    s_rows.append((25, [0, bits - 1]))
    if not lossless:
        s_rows.append((26, [0, bits]))
        r_rows.append((21, [0, bits]))
    return r_rows, s_rows, bits, {}


def _duplicates():
    shared = [[1, 5, 9], [5], [], [2, 3, 140]]
    r_rows = [(tid, shared[tid % 2]) for tid in range(12)]
    s_rows = [(tid, shared[tid % 4] + [7]) for tid in range(16)]
    return r_rows, s_rows, 160, {}


def _repeated(lossless: bool):
    """Records whose stored element list repeats an element (the loader
    never writes one; they are rewritten raw after the load)."""
    top = 150 if lossless else 400
    r_rows = [(0, [3]), (1, [3, 9]), (2, [9, top]), (3, [4])]
    s_rows = [(0, [3, 9]), (1, [3]), (2, [9, 11, top]), (3, [1, 4])]
    raw = {"R": {1: [3, 3, 9]}, "S": {1: [3, 3], 3: [1, 1, 4, 4]}}
    return r_rows, s_rows, 160, raw


def _huge(bits=160):
    r_rows = [(0, [1]), (1, [2**63 + 5]), (2, [1, 2])]
    s_rows = [(0, [1, 2]), (1, [1, 2**63 + 5]), (2, [2, 2**64 - 1])]
    return r_rows, s_rows, bits, {}


WIDTHS = (1, 7, 8, 63, 64, 65, 160)

LOSSLESS = {
    **{f"max=bits-1@{bits}": _near_width(bits, True) for bits in WIDTHS},
    "domain-1": (
        [(0, [0]), (1, []), (2, [0])], [(0, []), (1, [0]), (2, [0])], 160, {}
    ),
    "empty-sets": ([(0, []), (1, [])], [(0, []), (1, []), (2, [])], 160, {}),
    "duplicate-sets": _duplicates(),
    "repeated-element": _repeated(True),
}

LOSSY = {
    **{f"max=bits@{bits}": _near_width(bits, False) for bits in WIDTHS},
    "repeated-element-lossy": _repeated(False),
    "element>=2**63": _huge(),
}


def _brute_force(r_rows, s_rows):
    return {
        (r_tid, s_tid)
        for r_tid, r in r_rows for s_tid, s in s_rows
        if set(r) <= set(s)
    }


def _store_raw(store: RelationStore, rows: "dict[int, list[int]]") -> None:
    """Overwrite the stored records of ``rows`` (those ``store`` holds)
    with their element lists encoded as given, repeats included."""
    size = _chunk_size(store._tree.pool)
    for tid, elements in rows.items():
        if tid not in store:
            continue
        chunk = 0
        while store._tree.delete(_chunk_key(tid, chunk)):
            chunk += 1
        record = encode_tuple_record(tid, elements, b"")
        for chunk, at in enumerate(range(0, len(record), size)):
            store._tree.insert(_chunk_key(tid, chunk), record[at : at + size])


# ----------------------------------------------------------------------
# Paths: each runs R ⋈⊆ S and returns (pairs, metrics)
# ----------------------------------------------------------------------

def _operator(**options):
    def run(r_rows, s_rows, bits, raw, partitioner, tmp_path):
        with Testbed() as testbed:
            testbed.relation_r = RelationStore.create(testbed.pool, r_rows, 0, "R")
            testbed.relation_s = RelationStore.create(testbed.pool, s_rows, 0, "S")
            _store_raw(testbed.relation_r, raw.get("R", {}))
            _store_raw(testbed.relation_s, raw.get("S", {}))
            return SetContainmentJoin(
                testbed, partitioner, signature_bits=bits, **options
            ).run()
    return run


def _sharded(shards):
    """Each shard decides on its own R portion and S slice, so one whose
    slice lies below the width proves its candidates in a lossy run."""
    def run(r_rows, s_rows, bits, raw, partitioner, tmp_path):
        with ShardedDatabase.open(None, shards=shards) as db:
            db.create_relation("R", r_rows)
            db.create_relation("S", s_rows)
            for shard in db.shards:
                for name in ("R", "S"):
                    _store_raw(shard.db.get_store(name), raw.get(name, {}))
            return db.join("R", "S", signature_bits=bits, partitioner=partitioner)
    run.per_shard = shards > 1
    return run


def _file_database(r_rows, s_rows, bits, raw, partitioner, tmp_path):
    with SetJoinDatabase.open(str(tmp_path / "sets.db")) as db:
        db.create_relation("R", r_rows)
        db.create_relation("S", s_rows)
        for name in ("R", "S"):
            _store_raw(db.get_store(name), raw.get(name, {}))
        return db.join("R", "S", signature_bits=bits, partitioner=partitioner)


PATHS = [
    pytest.param(_operator(), id="serial"),
    pytest.param(_operator(spill_candidates=True), id="spill_candidates"),
    pytest.param(_operator(resident_partitions=2), id="resident_partitions=2"),
    pytest.param(
        _operator(workers=2, parallel_backend="thread"), id="workers=2-thread"
    ),
    pytest.param(
        _operator(workers=2, parallel_backend="process"), id="workers=2-process",
        marks=pytest.mark.skipif(
            not process_available, reason="process backend unavailable"
        ),
    ),
    pytest.param(_sharded(1), id="shards=1"),
    pytest.param(_sharded(2), id="shards=2"),
    pytest.param(_sharded(3), id="shards=3"),
    pytest.param(_file_database, id="file-database"),
]

PARTITIONERS = [
    pytest.param(algorithm, k, id=f"{algorithm}{k}")
    for algorithm, k in (("DCJ", 16), ("DCJ", 5), ("PSJ", 16), ("LSJ", 16))
]


def _run(path, case, algorithm, k, tmp_path):
    r_rows, s_rows, bits, raw = case
    partitioner = make_partitioner(algorithm, k, 2, 4, seed=3)
    pairs, metrics = path(r_rows, s_rows, bits, raw, partitioner, tmp_path)
    assert pairs == _brute_force(r_rows, s_rows)
    return metrics


@pytest.mark.parametrize("algorithm,k", PARTITIONERS)
@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("case", LOSSLESS.values(), ids=LOSSLESS)
def test_lossless_runs_prove_every_candidate(
    case, path, algorithm, k, tmp_path, monkeypatch
):
    monkeypatch.setattr(operator, "verify_pairs", _refuse)
    metrics = _run(path, case, algorithm, k, tmp_path)
    assert metrics.candidates == metrics.result_size == metrics.proven_by_signature
    assert metrics.set_comparisons == metrics.false_positives == 0
    assert metrics.verification.page_reads == 0
    assert metrics.filter_precision == 1.0


@pytest.mark.parametrize("algorithm,k", PARTITIONERS)
@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("case", LOSSY.values(), ids=LOSSY)
def test_lossy_runs_verify_every_candidate(case, path, algorithm, k, tmp_path):
    metrics = _run(path, case, algorithm, k, tmp_path)
    assert metrics.set_comparisons > 0
    assert (metrics.set_comparisons + metrics.proven_by_signature
            == metrics.candidates)
    if not getattr(path, "per_shard", False):
        assert metrics.proven_by_signature == 0


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("case", LOSSY.values(), ids=LOSSY)
def test_lossy_runs_reach_verify_pairs(case, path, tmp_path, monkeypatch):
    """The mutation guard's other half: with verification refused, every
    lossy run fails, so the lossless test above cannot pass by a path
    that never verifies anything."""
    monkeypatch.setattr(operator, "verify_pairs", _refuse)
    with pytest.raises(Exception) as caught:
        _run(path, case, "DCJ", 16, tmp_path)
    error = caught.value
    while not isinstance(error, VerificationRan):
        error = error.__cause__ or error.__context__
        assert error is not None, f"{caught.value!r} is not a refused verify"


def test_spans_and_explain_name_the_elision():
    from repro.core.sets import Relation, SetTuple
    from repro.obs.explain import analyze_join
    from repro.obs.trace import Tracer

    lhs = Relation([SetTuple(0, {1}), SetTuple(1, {2, 149})], "R")
    rhs = Relation([SetTuple(0, {1, 2}), SetTuple(1, {1, 2, 149})], "S")
    tracer = Tracer()
    analyzed = analyze_join(lhs, rhs, "DCJ", 4, tracer=tracer)
    verify = _spans(tracer, "phase.verify")[0]
    assert verify["elided"] is True
    assert verify["proven"] == analyzed.metrics.candidates == 3
    assert ("phase.verify  [elided: lossless signature (max element 149 < "
            "160 bits)]") in analyzed.render()

    lossy = analyze_join(lhs, rhs, "DCJ", 4, signature_bits=149).render()
    assert ("phase.verify  [sorted fetch + exact subset test (outside the "
            "time model); elided at run time if every element < 149]") in lossy


def _spans(tracer, name):
    return [record["attrs"] for record in tracer.export()
            if record["name"] == name]
