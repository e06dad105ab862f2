"""Differential tests of the blocked signature kernel.

The ``"python"`` engine's scalar loop is the oracle: on any block the
``"numpy"`` kernel must return the same comparison count and make the
same ``add`` calls in the same order (S-major, R order within one S
signature) — the order spilled-candidate B-trees and capture replays
are pinned to.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import operator
from repro.core.dcj import DCJPartitioner
from repro.core.operator import compare_block, run_disk_join
from repro.data.workloads import uniform_workload

WIDTHS = [1, 4, 7, 8, 63, 64, 65, 160, 200]


def trace(engine, bits, r_block, s_batches):
    calls = []
    count = compare_block(
        engine, bits, r_block, iter(s_batches),
        lambda r_tid, s_tid: calls.append((r_tid, s_tid)),
    )
    return count, calls


def assert_engines_agree(bits, r_signatures, s_batch_signatures):
    """Tids are positions, so a call sequence names exactly who matched."""
    r_block = [(signature, tid) for tid, signature in enumerate(r_signatures)]
    s_batches, next_tid = [], 0
    for signatures in s_batch_signatures:
        s_batches.append(
            [(sig, next_tid + offset) for offset, sig in enumerate(signatures)]
        )
        next_tid += len(signatures)
    expected = trace("python", bits, r_block, s_batches)
    assert trace("numpy", bits, r_block, s_batches) == expected
    assert expected[0] == len(r_block) * next_tid
    return expected


def signatures(bits, max_size=12):
    """Lists drawn from a small pool — so duplicates are the rule — of the
    adversarial signatures: empty, full, sparse (below the prefilter
    depth), dense (above it) and arbitrary."""
    full = (1 << bits) - 1
    sparse = st.sets(st.integers(0, bits - 1), max_size=6).map(
        lambda positions: sum(1 << position for position in positions)
    )
    one = st.one_of(
        st.sampled_from([0, full]), sparse, st.integers(0, full),
        sparse.map(lambda signature: full ^ signature),
    )
    return st.lists(one, min_size=1, max_size=5).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=max_size)
    )


@pytest.mark.parametrize("bits", WIDTHS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_matches_the_scalar_loop(bits, data):
    r_signatures = data.draw(signatures(bits))
    s_batches = data.draw(st.lists(signatures(bits), max_size=3))
    assert_engines_agree(bits, r_signatures, s_batches)


@pytest.mark.parametrize("bits", WIDTHS)
@pytest.mark.parametrize("s_size", [1, 63, 64, 65])
def test_bitmap_word_boundaries(bits, s_size):
    """S batches one short of, at, and one past a 64-bit bitmap word; every
    s is matched by the empty signature and by itself."""
    full = (1 << bits) - 1
    s_signatures = [(index * 0x9E3779B97F4A7C15) & full for index in range(s_size)]
    r_signatures = [0, full] + s_signatures
    count, calls = assert_engines_agree(bits, r_signatures, [s_signatures])
    assert count == len(r_signatures) * s_size
    assert sum(1 for r_tid, __ in calls if r_tid == 0) == s_size


@pytest.mark.parametrize("bits", [8, 160])
def test_empty_sides(bits):
    assert assert_engines_agree(bits, [], [[1, 2, 3]]) == (0, [])
    assert assert_engines_agree(bits, [1, 2, 3], []) == (0, [])
    assert assert_engines_agree(bits, [1, 2, 3], [[], [3], []]) == (
        3, [(0, 0), (1, 0), (2, 0)]
    )


@pytest.mark.parametrize("signature", [0, 0b1011, (1 << 160) - 1])
def test_all_identical_signatures(signature):
    count, calls = assert_engines_agree(160, [signature] * 70, [[signature] * 65])
    assert count == len(calls) == 70 * 65
    assert calls[:71] == [(r, 0) for r in range(70)] + [(0, 1)]


@pytest.mark.parametrize("seed", range(5))
def test_tiles_smaller_than_the_block(monkeypatch, seed):
    """R blocks and S batches spanning several tiles, with popcounts on
    both sides of the prefilter depth as in the case study (θ_R = 50):
    emission stays S-major across tile seams."""
    monkeypatch.setattr(operator, "_R_TILE", 7)
    monkeypatch.setattr(operator, "_S_TILE", 64)
    rng = random.Random(seed)

    def draw(cardinality):
        signature = 0
        for __ in range(cardinality):
            signature |= 1 << rng.randrange(160)
        return signature

    s_signatures = [draw(100) for __ in range(150)]
    r_signatures = [draw(rng.choice([2, 8, 9, 50])) for __ in range(40)]
    # Plant sure matches on both sides of the depth, and a deep near miss
    # that agrees with its s on every prefilter bit.
    for index, cardinality in enumerate([1, 8, 9, 50]):
        set_bits = [b for b in range(160) if s_signatures[index * 30] >> b & 1]
        r_signatures.append(sum(1 << b for b in set_bits[:cardinality]))
    dense = s_signatures[-1]
    r_signatures.append(
        dense | 1 << max(b for b in range(160) if not dense >> b & 1)
    )
    count, calls = assert_engines_agree(
        160, r_signatures, [s_signatures[:100], s_signatures[100:]]
    )
    assert count == len(r_signatures) * 150
    assert len(calls) >= 4


def test_block_larger_than_the_default_tile():
    r_signatures = [index % 251 for index in range(operator._R_TILE * 2 + 5)]
    count, calls = assert_engines_agree(
        8, r_signatures, [[0xFF, 0x0F], [0]]
    )
    assert count == len(r_signatures) * 3
    assert calls[0] == (0, 0) and calls[-1][1] == 2


@pytest.mark.parametrize("engine", ["python", "numpy"])
def test_spilled_candidates_page_io_is_pinned(engine):
    """The spill B-tree's page traffic depends on the order candidates are
    inserted in; these are the counts of the per-signature loop the blocked
    kernel replaced (8 buffer pages; R-major insertion would read 222)."""
    lhs, rhs = uniform_workload(
        150, 220, 4, 24, domain_size=150, seed=5
    ).materialize()
    for resident, reads, writes in ((0, 1449, 2102), (3, 1430, 2099)):
        __, metrics = run_disk_join(
            lhs, rhs, DCJPartitioner.for_cardinalities(8, 4, 24),
            engine=engine, signature_bits=40, spill_candidates=True,
            buffer_pages=8, resident_partitions=resident,
        )
        assert metrics.candidates == 1476
        assert metrics.signature_comparisons == 27858
        assert (metrics.joining.page_reads, metrics.joining.page_writes) == (
            reads, writes
        )
