"""Differential tests of the one-pass verification.

The scalar ``frozenset`` test is the oracle: on any candidate list the
vectorised hit count must report ``|r ∩ s|`` for every pair exactly, so
containment (all of r) and the intersection join's thresholds keep the
pairs the per-pair predicate kept.  The operator-level counters at the
end were measured at the commit before the per-tid fetch and the per-pair
predicate were replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import operator
from repro.core.metrics import JoinMetrics
from repro.core.modulo import make_partitioner
from repro.core.operator import Testbed, run_disk_join, verify_pairs
from repro.core.sets import Relation, containment_pairs_nested_loop
from repro.data.workloads import uniform_workload
from repro.database import SetJoinDatabase
from repro.dist import ShardedDatabase
from repro.errors import SetJoinError

LARGEST = 2**63 - 1


def columns(sets):
    """``(elements, offsets)`` as ``fetch_batches`` lays sets out; object
    dtype when a value does not fit int64, as the scalar decoder's are."""
    flat = [element for elements in sets for element in sorted(elements)]
    try:
        elements = np.array(flat, dtype=np.int64)
    except OverflowError:
        elements = np.array(flat, dtype=object)
    offsets = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum([len(elements) for elements in sets], out=offsets[1:])
    return elements, offsets


def assert_counts_agree(r_sets, s_sets, pairs):
    r_rows = np.array([r for r, __ in pairs], dtype=np.int64)
    s_rows = np.array([s for __, s in pairs], dtype=np.int64)
    expected = [len(set(r_sets[r]) & set(s_sets[s])) for r, s in pairs]
    sides = columns(r_sets), columns(s_sets), r_rows, s_rows
    assert operator._scalar_hit_counts(*sides).tolist() == expected
    hits = operator._hit_counts(*sides)
    assert hits.dtype == np.int64 and hits.tolist() == expected
    return expected


#: Elements from a small pool (so overlaps are the rule) with the extremes
#: of the range the composite key must carry.
ELEMENTS = st.one_of(
    st.integers(0, 12), st.sampled_from([0, 1, 150, 2**31, LARGEST - 1, LARGEST])
)
SETS = st.lists(st.frozensets(ELEMENTS, max_size=9), min_size=1, max_size=7)


def with_pairs(sides):
    r_sets, s_sets = sides
    pair = st.tuples(
        st.integers(0, len(r_sets) - 1), st.integers(0, len(s_sets) - 1)
    )
    return st.tuples(
        st.just(r_sets), st.just(s_sets), st.lists(pair, min_size=1, max_size=40)
    )


class TestHitCounts:
    @settings(max_examples=150, deadline=None)
    @given(st.tuples(SETS, SETS).flatmap(with_pairs), st.sampled_from([7, 1 << 16]))
    def test_matches_the_scalar_set_test(self, case, bound):
        r_sets, s_sets, pairs = case
        # Not the monkeypatch fixture: hypothesis runs many examples per call.
        saved = operator._VERIFY_SLICE_ELEMENTS
        operator._VERIFY_SLICE_ELEMENTS = bound
        try:
            assert_counts_agree(r_sets, s_sets, pairs)
        finally:
            operator._VERIFY_SLICE_ELEMENTS = saved

    def test_adversarial_sets_straddling_slices(self, monkeypatch):
        monkeypatch.setattr(operator, "_VERIFY_SLICE_ELEMENTS", 7)
        big = frozenset(range(0, 9_000, 3))
        r_sets = [frozenset(), frozenset({0}), big, frozenset({0, LARGEST}),
                  frozenset(range(5)), big | {1}]
        s_sets = [frozenset(), big, frozenset({0, LARGEST}), frozenset(range(5)),
                  frozenset({LARGEST})]
        # Every pair, in an order repeating rows on both sides, plus
        # outright duplicates; 30 + 7 pairs is no multiple of anything.
        pairs = [(r, s) for r in range(len(r_sets)) for s in range(len(s_sets))]
        pairs += pairs[3:10]
        counts = assert_counts_agree(r_sets, s_sets, pairs)
        assert counts[:5] == [0] * 5                 # empty r meets nothing
        assert counts[2 * 5 + 1] == len(big) == 3_000  # identical sets
        assert counts[3 * 5 + 2] == 2                # elements 0 and 2**63 - 1

    def test_slices_cut_where_the_bound_says(self, monkeypatch):
        lookups = []
        real = np.searchsorted
        monkeypatch.setattr(
            operator.np, "searchsorted",
            lambda keys, wanted, *a, **k: lookups.append(len(wanted))
            or real(keys, wanted, *a, **k),
        )
        monkeypatch.setattr(operator, "_VERIFY_SLICE_ELEMENTS", 7)
        r_sets = [frozenset(range(3)), frozenset(range(20)), frozenset()]
        s_sets = [frozenset(range(0, 30, 2))]
        pairs = [(0, 0)] * 5 + [(1, 0), (2, 0), (0, 0), (0, 0)]
        assert_counts_agree(r_sets, s_sets, pairs)
        # Starts 0 3 6 | 9 12 | 15 (the 20-element set) | 35 35 38: a slice
        # holds the pairs starting in one 7-element window, whole.
        assert lookups == [9, 6, 20, 6]
        assert max(lookups) <= 7 + 20

    def test_values_the_keys_cannot_carry_take_the_scalar_path(self, monkeypatch):
        taken = []
        real = operator._scalar_hit_counts
        monkeypatch.setattr(
            operator, "_scalar_hit_counts",
            lambda *sides: taken.append(1) or real(*sides),
        )
        narrow = [frozenset({1, 2}), frozenset({2})]
        pairs = [(0, 0), (1, 1), (1, 0), (0, 1)]

        def counts(r_sets, s_sets):
            sides = (columns(r_sets), columns(s_sets),
                     np.array([r for r, __ in pairs]),
                     np.array([s for __, s in pairs]))
            return operator._hit_counts(*sides).tolist()

        assert counts(narrow, narrow) == [2, 1, 1, 1] and not taken
        # A value past int64: object-dtype arrays.
        wide = [frozenset({1, 2, 2**63}), frozenset({2, 2**63})]
        assert counts(wide, narrow) == [2, 1, 1, 1] and len(taken) == 1
        assert counts(narrow, wide) == [2, 1, 1, 1] and len(taken) == 2
        assert counts(wide, wide) == [3, 2, 2, 2] and len(taken) == 3
        # int64 values whose composite key (row * span + element) is not.
        edge = [frozenset({2, LARGEST})]
        assert counts(narrow, narrow[:1] + edge)[:2] == [2, 1] and len(taken) == 4
        roomy = [frozenset({2, LARGEST // 2 - 1})]
        assert counts(narrow, narrow[:1] + roomy)[:2] == [2, 1] and len(taken) == 4


def loaded_testbed(r_sets, s_sets, r_tids=None, s_tids=None):
    testbed = Testbed(page_size=1024, buffer_pages=32)
    testbed.load(
        Relation.from_mapping(dict(zip(r_tids or range(len(r_sets)), r_sets))),
        Relation.from_mapping(dict(zip(s_tids or range(len(s_sets)), s_sets))),
        payload_size=8,
    )
    return testbed


class TestVerifyPairs:
    @settings(max_examples=40, deadline=None)
    @given(st.tuples(SETS, SETS).flatmap(with_pairs),
           st.sampled_from([None, 1, 2, 3]))
    def test_keeps_what_the_predicate_kept(self, case, required):
        r_sets, s_sets, pairs = case
        pairs = sorted(set(pairs))
        if required is None:
            expected = {(r, s) for r, s in pairs if r_sets[r] <= s_sets[s]}
        else:
            expected = {(r, s) for r, s in pairs
                        if len(r_sets[r] & s_sets[s]) >= required}
        metrics = JoinMetrics(algorithm="test", num_partitions=1)
        with loaded_testbed(r_sets, s_sets) as testbed:
            assert verify_pairs(testbed, pairs, required, metrics) == expected
        assert metrics.set_comparisons == len(pairs)
        assert metrics.false_positives == len(pairs) - len(expected)

    def test_wide_tids_and_elements_verify_through_the_fallback(self):
        r_sets = [frozenset({1}), frozenset({1, 2**63 + 4}), frozenset()]
        s_sets = [frozenset({1, 2}), frozenset({1, 2**63 + 4})]
        r_tids, s_tids = [0, 7, 2**64 - 1], [2**63, 2**64 - 1]
        pairs = sorted((r, s) for r in r_tids for s in s_tids)
        metrics = JoinMetrics(algorithm="test", num_partitions=1)
        with loaded_testbed(r_sets, s_sets, r_tids, s_tids) as testbed:
            kept = verify_pairs(testbed, pairs, None, metrics)
            assert kept == {
                (0, 2**63), (0, 2**64 - 1), (7, 2**64 - 1),
                (2**64 - 1, 2**63), (2**64 - 1, 2**64 - 1),
            }
            assert verify_pairs(testbed, pairs, 2, metrics) == {(7, 2**64 - 1)}
        assert metrics.set_comparisons == 12 and metrics.false_positives == 6

    def test_no_candidates_read_nothing_and_report_zero_fetches(self):
        class Span:
            attrs = {}

            def set(self, **attrs):
                self.attrs = attrs

        metrics = JoinMetrics(algorithm="test", num_partitions=1)
        with loaded_testbed([frozenset({1})], [frozenset({1})]) as testbed:
            before = testbed.pool.stats.snapshot()
            span = Span()
            assert verify_pairs(testbed, [], None, metrics, span) == set()
            delta = testbed.pool.stats.delta(before)
            assert delta.hits + delta.misses == 0
            assert span.attrs == {"fetched_r": 0, "fetched_s": 0}
            verify_pairs(testbed, [(0, 0)], None, metrics, span)
            assert span.attrs == {"fetched_r": 1, "fetched_s": 1}
        assert metrics.set_comparisons == 1

    def test_a_candidate_missing_from_its_relation_is_an_error(self):
        metrics = JoinMetrics(algorithm="test", num_partitions=1)
        sets = [frozenset({1}), frozenset({2})]
        with loaded_testbed(sets, sets) as testbed:
            for pairs in ([(0, 0), (5, 1)], [(0, 9)], [(-1, 0)]):
                with pytest.raises(SetJoinError, match="is not in relation"):
                    verify_pairs(testbed, pairs, None, metrics)


# ----------------------------------------------------------------------
# The operator around it: a domain wider than the signature, so the
# filter passes false positives and verification has something to reject
# ----------------------------------------------------------------------

#: Measured at the parent commit (one descent per tid, one frozenset
#: predicate per pair) with the calls below.  The partitioning and joining
#: I/O was re-pinned once, lower, for portion pages (DESIGN.md §1.12):
#: (41, 30) (25, 0) / (41, 30) (25, 1) / (39, 20) (14, 0) / (0, 28) /
#: (0, 74) before; verification did not move.  The
#: resident-partition joining reads fell 8 → 6 with columnar relation
#: pages (DESIGN.md §1.13): the scan reads its leaves a group at a time,
#: before the portion flushes, so the 16-page pool evicts in another order.
#: The two-shard partitioning writes fell 68 → 66 with the one relation
#: loader (DESIGN.md §1.17): each shard's R portion has full leaves.
#: They fell 66 → 36 with in-memory R portions (DESIGN.md §1.19): a
#: shard joins the shipped arrays and writes no portion B-tree.
CANDIDATES, FALSE_POSITIVES, RESULTS = 153, 132, 21
PHASE_IO = {
    "deferred": [(39, 24), (18, 0), (39, 0)],
    "spill_candidates": [(39, 24), (19, 1), (39, 0)],
    "resident_partitions": [(39, 16), (6, 0), (39, 0)],
    "database": [(0, 24), (0, 0), (0, 0)],
    "two shards": [(0, 36), (0, 0), (0, 0)],
}


@pytest.fixture(scope="module")
def wide_domain():
    lhs, rhs = uniform_workload(
        400, 600, 3, 14, domain_size=400, seed=7, planted_pairs=12
    ).materialize()
    return lhs, rhs, containment_pairs_nested_loop(lhs, rhs)


def assert_pinned(pairs, metrics, truth, name):
    assert pairs == truth and len(pairs) == RESULTS
    assert (metrics.candidates, metrics.set_comparisons,
            metrics.false_positives) == (CANDIDATES, CANDIDATES, FALSE_POSITIVES)
    assert [
        (phase.page_reads, phase.page_writes)
        for phase in (metrics.partitioning, metrics.joining, metrics.verification)
    ] == PHASE_IO[name]


@pytest.mark.parametrize("name, options", [
    ("deferred", {}),
    ("spill_candidates", {"spill_candidates": True}),
    ("resident_partitions", {"resident_partitions": 2}),
])
def test_operator_counters_and_page_io_are_the_parents(wide_domain, name, options):
    lhs, rhs, truth = wide_domain
    pairs, metrics = run_disk_join(
        lhs, rhs, make_partitioner("DCJ", 8, 3, 14), signature_bits=160,
        buffer_pages=16, **options,
    )
    assert_pinned(pairs, metrics, truth, name)


def test_database_and_sharded_joins_are_the_parents(wide_domain):
    lhs, rhs, truth = wide_domain
    for name, opened in (
        ("database", SetJoinDatabase.open(None)),
        ("two shards", ShardedDatabase.open(None, shards=2)),
    ):
        with opened as db:
            db.create_relation("R", lhs)
            db.create_relation("S", rhs)
            pairs, metrics = db.join("R", "S", algorithm="DCJ", num_partitions=8)
        assert_pinned(pairs, metrics, truth, name)


def test_verify_spans_say_how_many_tuples_each_side_fetched(wide_domain):
    from repro.obs.trace import Tracer

    lhs, rhs, truth = wide_domain
    tracer = Tracer()
    pairs, metrics = run_disk_join(
        lhs, rhs, make_partitioner("DCJ", 8, 3, 14), signature_bits=160,
        tracer=tracer,
    )
    (span,) = [span for root in tracer.roots for span in root.walk()
               if span.name == "phase.verify"]
    assert pairs == truth
    assert span.attrs["candidates"] == CANDIDATES
    assert 0 <= span.attrs["fetched_r"] <= span.attrs["candidates"]
    assert 0 <= span.attrs["fetched_s"] <= span.attrs["candidates"]
    assert span.attrs["fetched_r"] >= len({r for r, __ in truth}) > 0
