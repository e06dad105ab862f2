"""Set signatures and the bitwise-inclusion filter.

A signature is a fixed-width bit vector computed from a set's elements:
element ``e`` turns on bit ``e mod width`` (Table 2 of the paper uses
width 4; the experiments use 160 bits).  Signatures preserve containment
one way:

    x ⊆ y  ⟹  sig(x) ⊆ᵇ sig(y)

so ``sig(x) & ~sig(y) == 0`` is a sound *filter*: it can produce false
positives (candidate pairs that are not really contained) but never false
negatives.  All join algorithms here compare signatures first and verify
surviving candidates against the actual sets.

Signatures are represented as Python ints (arbitrary precision makes the
160-bit signatures of the paper's experiments natural); the vectorized
join engine works on :func:`pack_signatures`' uint64-word packing.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "DEFAULT_SIGNATURE_BITS",
    "signature_of",
    "signatures_of",
    "signature_matrix",
    "bitwise_included",
    "popcount",
    "expected_bit_density",
    "false_positive_probability",
    "recommend_signature_bits",
    "pack_signatures",
    "included_in_any_matrix",
]

DEFAULT_SIGNATURE_BITS = 160


def signature_of(elements: Iterable[int], bits: int = DEFAULT_SIGNATURE_BITS) -> int:
    """Compute the signature of a set as an integer bit vector."""
    if bits < 1:
        raise ConfigurationError(f"signature width must be >= 1, got {bits}")
    signature = 0
    for element in elements:
        signature |= 1 << (element % bits)
    return signature


def signatures_of(
    sets: Iterable[Iterable[int]], bits: int = DEFAULT_SIGNATURE_BITS
) -> list[int]:
    """Signatures for many sets."""
    return [signature_of(elements, bits) for elements in sets]


def signature_matrix(
    elements: np.ndarray, offsets: np.ndarray, bits: int = DEFAULT_SIGNATURE_BITS
) -> np.ndarray:
    """Signatures of a batch of sets as an ``(n, signature_bytes)`` uint8
    matrix of big-endian rows — the layout of partition pages, which
    :func:`pack_signatures` reads.

    The batch is columnar: set ``i`` is ``elements[offsets[i]:offsets[i+1]]``.
    Row ``i`` equals ``signature_of(set i, bits).to_bytes(signature_bytes,
    "big")``: element ``e`` sets integer bit ``e mod bits``, which is column
    ``8 * signature_bytes - 1 - e mod bits`` of the most-significant-first
    bit matrix that ``np.packbits`` packs.
    """
    if bits < 1:
        raise ConfigurationError(f"signature width must be >= 1, got {bits}")
    width = 8 * ((bits + 7) // 8)
    fired = np.zeros((len(offsets) - 1, width), dtype=bool)
    rows = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    fired[rows, width - 1 - (elements % bits).astype(np.intp)] = True
    return np.packbits(fired, axis=1)


def bitwise_included(sig_x: int, sig_y: int) -> bool:
    """The ⊆ᵇ predicate: every bit of ``sig_x`` is set in ``sig_y``.

    Implemented exactly as the paper suggests: ``sig(x) & ¬sig(y) == 0``.
    """
    return sig_x & ~sig_y == 0


def popcount(signature: int) -> int:
    """Number of set bits."""
    return signature.bit_count()


def expected_bit_density(cardinality: int, bits: int) -> float:
    """Probability that a given bit is set for a random set of this size.

    Equals ``1 - (1 - 1/bits)**cardinality`` under the paper's uniform-
    element assumption; also the firing probability of the bit-string hash
    functions of Section 3.
    """
    if bits < 1:
        raise ConfigurationError("bits must be >= 1")
    return 1.0 - (1.0 - 1.0 / bits) ** cardinality


def false_positive_probability(
    theta_r: int, theta_s: int, bits: int
) -> float:
    """Estimated probability that sig(r) ⊆ᵇ sig(s) for non-joining r, s.

    Each of r's (up to θ_R distinct) bits must independently hit one of
    s's set bits, whose density is :func:`expected_bit_density`.  This is
    the standard signature-file estimate [FC84]; it drives the choice of a
    signature width "large enough so that none or very few false positives
    are produced".
    """
    density = expected_bit_density(theta_s, bits)
    return density**theta_r


def recommend_signature_bits(
    theta_r: float,
    theta_s: float,
    pairs_compared: float,
    target_false_positives: float = 1.0,
    max_bits: int = 4096,
    domain: "int | None" = None,
) -> int:
    """Smallest signature width keeping expected false positives low.

    The paper fixes 160 bits after noting that "the exact choice of the
    signature size is less critical, as long as the signatures are large
    enough so that none or very few false positives are produced".  This
    advisor makes that choice mechanical: find the smallest width (rounded
    up to whole bytes) such that the expected number of false positives
    over ``pairs_compared`` signature comparisons stays below the target.

    ``domain`` (every element below it, e.g. ``Relation.domain_bound()``)
    adds the lossless width ``8·ceil(domain/8)``: there each element has a
    bit of its own, signatures are the sets and a join verifies nothing.
    It is returned when it is no wider than the estimate's answer.
    """
    if pairs_compared < 0:
        raise ConfigurationError("pairs_compared must be non-negative")
    if target_false_positives <= 0:
        raise ConfigurationError("target_false_positives must be positive")
    if domain is not None and domain < 1:
        raise ConfigurationError(f"domain must be >= 1, got {domain}")
    bits = 8
    while bits < max_bits and pairs_compared * false_positive_probability(
        int(theta_r), int(theta_s), bits
    ) > target_false_positives:
        bits += 8
    bits = min(bits, max_bits)
    if domain is not None:
        return min(bits, 8 * -(-domain // 8))
    return bits


def pack_signatures(
    signatures: "Sequence[int] | np.ndarray", bits: int
) -> np.ndarray:
    """Pack signatures into a (n, words) uint64 matrix.

    Word 0 holds the least-significant 64 bits; a width that is not a
    multiple of 64 is zero-padded.  ``signatures`` is either a sequence
    of ints or an ``(n, signature_bytes)`` uint8 matrix of big-endian
    rows, the layout of partition pages.  This is the one packed form the
    vectorized comparison engine works on.
    """
    row_bytes = 8 * ((bits + 63) // 64)
    if isinstance(signatures, np.ndarray):
        packed = np.zeros((len(signatures), row_bytes), dtype=np.uint8)
        packed[:, : signatures.shape[1]] = signatures[:, ::-1]
    else:
        raw = b"".join(
            signature.to_bytes(row_bytes, "little") for signature in signatures
        )
        packed = np.frombuffer(raw, dtype=np.uint8).reshape(-1, row_bytes)
    return packed.view("<u8")


def included_in_any_matrix(r_sig: int, packed_s: np.ndarray, bits: int) -> np.ndarray:
    """Vectorized ⊆ᵇ of one R signature against a packed S matrix.

    Returns a boolean vector: entry j is True iff ``r_sig ⊆ᵇ S[j]``.
    """
    words = packed_s.shape[1]
    mask = (1 << 64) - 1
    result = np.ones(packed_s.shape[0], dtype=bool)
    for word in range(words):
        r_word = np.uint64((r_sig >> (64 * word)) & mask)
        result &= (r_word & ~packed_s[:, word]) == 0
    return result
