"""One relation read surface: a held relation against the stored one.

:func:`~repro.core.api.containment_join` hands its :class:`Relation`
inputs to the operator as they are held; :func:`~repro.core.operator.
run_disk_join` stores them in a testbed first.  The answer is unique, so
each is the other's oracle: on the same partitioner both must give the
same pairs, x, y, candidates and false positives, on the inputs that
break array paths — tids past int64, tids out of order, empty and giant
sets, one object on both sides, a relation grown by ``add``, a signature
wider than a machine word.  A held relation's ``fetch_batches`` answers
as a :class:`RelationStore`'s does, and no in-memory join stores a page
of either relation.
"""

import random

import pytest

from repro.core import api
from repro.core.operator import Testbed, run_disk_join
from repro.core.optimizer import resolve_plan
from repro.core.sets import Relation, SetTuple, containment_pairs_nested_loop
from repro.storage.buffer import BufferPool
from repro.storage.pager import InMemoryDiskManager
from repro.storage.relation_store import BATCH_TUPLES, RelationStore

HIGH = 2**63
LAST_TID = 2**64 - 1
#: Elements above every signature width below, so verification fetches.
DOMAIN = 400
COUNTERS = ("signature_comparisons", "replicated_signatures", "candidates",
            "false_positives", "result_size")


def _sets(rng, count, largest=9):
    return [frozenset(rng.sample(range(DOMAIN), rng.randrange(1, largest)))
            for __ in range(count)]


def _planted(rng, lhs_sets, rhs_sets):
    """Make every fifth S set a superset of some R set."""
    for at in range(0, len(rhs_sets), 5):
        rhs_sets[at] |= rng.choice(lhs_sets)
    return rhs_sets


def _case(kind):
    """``(lhs, rhs, signature_bits)`` of one adversarial input."""
    rng = random.Random(kind)
    lhs_sets, rhs_sets = _sets(rng, 150, 5), _sets(rng, 200, 14)
    rhs_sets = _planted(rng, lhs_sets, rhs_sets)
    bits = 64
    if kind == "wide-tids":
        lhs = Relation(zip(range(HIGH, HIGH + 150), lhs_sets), "R")
        rhs = Relation(zip([LAST_TID - i for i in range(200)], rhs_sets), "S")
    elif kind == "out-of-order":
        lhs_tids = rng.sample(range(10**6), 150)
        rhs_tids = rng.sample(range(10**6), 200)
        lhs, rhs = (Relation(zip(lhs_tids, lhs_sets), "R"),
                    Relation(zip(rhs_tids, rhs_sets), "S"))
    elif kind == "empty-and-giant":
        lhs_sets[::7] = [frozenset()] * len(lhs_sets[::7])
        rhs_sets[3] = frozenset(range(0, 15_000, 3))  # spans record chunks
        rhs_sets[9] = frozenset()
        lhs, rhs = Relation.from_sets(lhs_sets), Relation.from_sets(rhs_sets)
    elif kind == "after-add":
        lhs, rhs = Relation.from_sets(lhs_sets), Relation.from_sets(rhs_sets)
        lhs.arrays  # the arrays are read, then rebuilt after the adds
        for tid in (900, 450, 10**9):
            lhs.add(SetTuple(tid, rng.choice(rhs_sets)))
    elif kind == "wide-signature":
        lhs, rhs = Relation.from_sets(lhs_sets), Relation.from_sets(rhs_sets)
        bits = 70
    return lhs, rhs, bits


CASES = ["wide-tids", "out-of-order", "empty-and-giant", "after-add",
         "wide-signature"]
PLANS = [("DCJ", 1), ("DCJ", 8), ("PSJ", 5), ("LSJ", 16)]


def _both(lhs, rhs, algorithm, k, bits):
    """The held join and the stored join on the same partitioner."""
    held = api.containment_join(lhs, rhs, algorithm, k, signature_bits=bits)
    plan = resolve_plan(algorithm, k, len(lhs), lhs.average_cardinality(),
                        len(rhs), rhs.average_cardinality())
    stored = run_disk_join(lhs, rhs, plan.build_partitioner(0),
                           signature_bits=bits)
    return held, stored


def _counters(metrics):
    return {name: getattr(metrics, name) for name in COUNTERS}


@pytest.mark.parametrize("algorithm, k", PLANS,
                         ids=[f"{a}-k{k}" for a, k in PLANS])
@pytest.mark.parametrize("kind", CASES)
def test_held_and_stored_joins_agree(kind, algorithm, k):
    lhs, rhs, bits = _case(kind)
    (held, held_metrics), (stored, stored_metrics) = _both(
        lhs, rhs, algorithm, k, bits)
    assert held == stored == containment_pairs_nested_loop(lhs, rhs)
    assert _counters(held_metrics) == _counters(stored_metrics)
    assert held_metrics.false_positives > 0 or kind == "empty-and-giant"
    # The held join read no relation page: only partitions were read.
    assert held_metrics.verification.page_reads == 0
    assert held_metrics.total_page_writes == stored_metrics.total_page_writes


@pytest.mark.parametrize("kind", CASES)
def test_a_self_join_of_one_object_agrees(kind):
    relation, __, bits = _case(kind)
    (held, held_metrics), (stored, stored_metrics) = _both(
        relation, relation, "DCJ", 4, bits)
    assert held == stored == containment_pairs_nested_loop(relation, relation)
    assert _counters(held_metrics) == _counters(stored_metrics)
    strict, __ = api.self_containment_join(relation, "DCJ", 4,
                                           signature_bits=bits)
    assert strict == {(a, b) for a, b in held if a != b}


def _rows(kind):
    rng = random.Random(31)
    tids = rng.sample(range(1, 50_000), 2 * BATCH_TUPLES + 40)
    rows = [(tid, frozenset(rng.sample(range(300), rng.randrange(0, 9))))
            for tid in tids]
    if kind == "wide-tids":
        rows += [(HIGH, frozenset({1, 2})), (LAST_TID, frozenset({3}))]
    rng.shuffle(rows)
    return rows


def _listed(batches):
    rows = []
    for tids, elements, offsets in batches:
        flat, bounds = elements.tolist(), offsets.tolist()
        rows += [(tid, flat[lo:hi])
                 for tid, lo, hi in zip(tids.tolist(), bounds, bounds[1:])]
    return rows


@pytest.mark.parametrize("kind", ["int64", "wide-tids"])
@pytest.mark.parametrize("tids", [
    [],
    [-1, -(2**70), 2**64, 2**64 + 7, 2**80],
    [0, 50_000, 49_999_999, HIGH - 1, HIGH + 1],
    [LAST_TID, HIGH, -5, LAST_TID, 2**64],
    "every tid, shuffled and repeated, plus absent ones",
], ids=["none", "out-of-range", "absent", "extremes", "all"])
def test_fetches_answer_as_the_store_does(kind, tids):
    rows = _rows(kind)
    relation = Relation(rows, "r")
    pool = BufferPool(InMemoryDiskManager(4096), capacity=64)
    store = RelationStore.create(pool, rows, name="r")
    if isinstance(tids, str):
        stored = [tid for tid, __ in rows]
        tids = stored + stored[::3] + [-5, 2**64 + 1, 50_001]
        random.Random(9).shuffle(tids)
    held = _listed(relation.fetch_batches(iter(tids)))
    assert held == _listed(store.fetch_batches(iter(tids)))
    assert [tid for tid, __ in held] == sorted(
        {tid for tid in tids if tid in relation})


def _refuse(*args, **kwargs):
    raise AssertionError("an in-memory join stored a relation")


def test_in_memory_joins_store_nothing(monkeypatch):
    lhs, rhs, bits = _case("out-of-order")
    expected = containment_pairs_nested_loop(lhs, rhs)
    monkeypatch.setattr(Testbed, "load", _refuse)
    monkeypatch.setattr(RelationStore, "create", _refuse)
    assert api.containment_join(lhs, rhs, signature_bits=bits)[0] == expected
    assert api.containment_join(lhs, rhs, "PSJ", 4, workers=2,
                                backend="thread")[0] == expected
    assert api.superset_join(rhs, lhs, "DCJ", 8)[0] == {
        (s, r) for r, s in expected}
    assert api.self_containment_join(lhs, "LSJ", 4)[0] == {
        pair for pair in containment_pairs_nested_loop(lhs, lhs)
        if pair[0] != pair[1]}
    analyzed = api.analyze_containment_join(lhs, rhs, algorithm="DCJ",
                                            num_partitions=8)
    assert analyzed.pairs == expected
    assert analyzed.metrics.verification.page_reads == 0
