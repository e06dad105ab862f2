"""Tests for signatures and the bitwise-inclusion filter."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.signatures import (
    bitwise_included,
    expected_bit_density,
    false_positive_probability,
    included_in_any_matrix,
    pack_signatures,
    popcount,
    signature_of,
    signatures_of,
)
from repro.errors import ConfigurationError


class TestSignatureOf:
    def test_paper_table2(self, paper_r, paper_s):
        """Table 2's 4-bit signatures, MSB-first as printed in the paper."""
        expected_r = ["0010", "0110", "1010", "1001"]
        expected_s = ["1010", "0111", "1010", "1101"]
        for row, expected in zip(paper_r, expected_r):
            assert format(signature_of(row.elements, 4), "04b") == expected
        for row, expected in zip(paper_s, expected_s):
            assert format(signature_of(row.elements, 4), "04b") == expected

    def test_empty_set_has_zero_signature(self):
        assert signature_of(set(), 160) == 0

    def test_width_validation(self):
        with pytest.raises(ConfigurationError):
            signature_of({1}, 0)

    def test_signatures_of_many(self):
        assert signatures_of([{0}, {1}], 4) == [1, 2]

    def test_collisions_fold_modulo_width(self):
        assert signature_of({1}, 4) == signature_of({5}, 4) == signature_of({1, 5}, 4)


class TestBitwiseInclusion:
    def test_paper_filter_example(self):
        # sig(d) ⊄ᵇ sig(A): d={8,19} -> 1001, A={1,5,7} -> 1010
        sig_d = signature_of({8, 19}, 4)
        sig_a = signature_of({1, 5, 7}, 4)
        assert not bitwise_included(sig_d, sig_a)

    def test_reflexive(self):
        signature = signature_of({3, 17, 99}, 32)
        assert bitwise_included(signature, signature)

    def test_zero_included_in_everything(self):
        assert bitwise_included(0, 0b1011)
        assert bitwise_included(0, 0)

    @given(
        st.frozensets(st.integers(0, 10_000), max_size=40),
        st.frozensets(st.integers(0, 10_000), max_size=40),
        st.sampled_from([4, 32, 64, 160]),
    )
    def test_soundness_no_false_negatives(self, x, y, bits):
        """The filter property: x ⊆ y implies sig(x) ⊆ᵇ sig(y)."""
        if x <= y:
            assert bitwise_included(signature_of(x, bits), signature_of(y, bits))

    @given(
        st.frozensets(st.integers(0, 200), min_size=1, max_size=20),
        st.frozensets(st.integers(0, 200), max_size=20),
    )
    def test_filter_rejections_are_correct(self, x, y):
        """If the filter rejects, the sets truly do not join."""
        bits = 160  # wide enough that element -> bit is injective here
        if not bitwise_included(signature_of(x, bits), signature_of(y, bits)):
            assert not x <= y


class TestEstimates:
    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3

    def test_expected_bit_density_limits(self):
        assert expected_bit_density(0, 160) == 0.0
        assert expected_bit_density(1, 1) == 1.0
        assert 0.0 < expected_bit_density(100, 160) < 1.0

    def test_density_matches_paper_example(self):
        # b=200, |s|=100 -> ~0.4 (Section 3)
        assert expected_bit_density(100, 200) == pytest.approx(0.394, abs=0.01)

    def test_false_positive_probability_monotone_in_bits(self):
        narrow = false_positive_probability(50, 100, 64)
        wide = false_positive_probability(50, 100, 1024)
        assert wide < narrow

    def test_invalid_bits(self):
        with pytest.raises(ConfigurationError):
            expected_bit_density(10, 0)


class TestPackedSignatures:
    def test_pack_roundtrip_words(self):
        signatures = [(1 << 159) | 1, 0, (1 << 64) | (1 << 63)]
        packed = pack_signatures(signatures, 160)
        assert packed.shape == (3, 3)
        assert packed[0, 0] == 1
        assert packed[0, 2] == 1 << (159 - 128)

    @pytest.mark.parametrize("bits", [1, 7, 64, 65, 160, 200])
    def test_pack_zero_pads_and_accepts_page_bytes(self, bits):
        """Ints and the partition pages' big-endian byte rows pack alike."""
        signatures = [0, 1, (1 << bits) - 1, 1 << (bits - 1)]
        packed = pack_signatures(signatures, bits)
        assert packed.dtype == np.uint64
        assert packed.shape == (4, (bits + 63) // 64)
        assert [
            sum(int(word) << (64 * index) for index, word in enumerate(row))
            for row in packed
        ] == signatures
        width = (bits + 7) // 8
        rows = np.frombuffer(
            b"".join(signature.to_bytes(width, "big") for signature in signatures),
            dtype=np.uint8,
        ).reshape(-1, width)
        assert (pack_signatures(rows, bits) == packed).all()
        assert pack_signatures([], bits).shape == (0, packed.shape[1])

    @given(
        st.lists(st.integers(0, (1 << 160) - 1), min_size=1, max_size=16),
        st.integers(0, (1 << 160) - 1),
    )
    def test_vectorized_matches_scalar(self, signatures, probe):
        packed = pack_signatures(signatures, 160)
        vector = included_in_any_matrix(probe, packed, 160)
        expected = np.array(
            [bitwise_included(probe, signature) for signature in signatures]
        )
        assert (vector == expected).all()
