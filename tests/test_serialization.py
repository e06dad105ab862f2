"""Unit and property tests for the binary record encodings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.storage.serialization import (
    decode_partition_entries,
    decode_partition_entry,
    decode_set,
    decode_tuple_record,
    decode_tuple_records,
    decode_uvarint,
    encode_partition_entry,
    encode_set,
    encode_tuple_record,
    encode_tuple_records,
    encode_uvarint,
    partition_entry_size,
)


class TestUvarint:
    def test_zero(self):
        assert encode_uvarint(0) == b"\x00"
        assert decode_uvarint(b"\x00") == (0, 1)

    def test_single_byte_boundary(self):
        assert encode_uvarint(127) == b"\x7f"
        assert len(encode_uvarint(128)) == 2

    def test_known_value(self):
        # 300 = 0b100101100 -> LEB128: 0xAC 0x02
        assert encode_uvarint(300) == b"\xac\x02"

    def test_negative_rejected(self):
        with pytest.raises(SerializationError):
            encode_uvarint(-1)

    def test_truncated_rejected(self):
        with pytest.raises(SerializationError):
            decode_uvarint(b"\x80")

    def test_overlong_rejected(self):
        with pytest.raises(SerializationError):
            decode_uvarint(b"\xff" * 12)

    def test_decode_at_offset(self):
        data = b"\x01" + encode_uvarint(999)
        value, end = decode_uvarint(data, 1)
        assert value == 999
        assert end == len(data)

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_roundtrip(self, value):
        encoded = encode_uvarint(value)
        assert decode_uvarint(encoded) == (value, len(encoded))


class TestSetEncoding:
    def test_empty_set(self):
        encoded = encode_set(frozenset())
        assert decode_set(encoded) == (frozenset(), len(encoded))

    def test_delta_coding_is_compact(self):
        dense = encode_set(set(range(1000, 1100)))
        sparse = encode_set({i * 10_000 for i in range(100)})
        assert len(dense) < len(sparse)

    def test_negative_rejected(self):
        with pytest.raises(SerializationError):
            encode_set({-1, 2})

    @given(st.frozensets(st.integers(min_value=0, max_value=2**40), max_size=200))
    def test_roundtrip(self, elements):
        encoded = encode_set(elements)
        decoded, end = decode_set(encoded)
        assert decoded == elements
        assert end == len(encoded)


class TestTupleRecord:
    def test_roundtrip_with_payload(self):
        record = encode_tuple_record(42, {1, 5, 9}, b"x" * 100)
        assert decode_tuple_record(record) == (42, frozenset({1, 5, 9}), b"x" * 100)

    def test_empty_payload(self):
        record = encode_tuple_record(0, set(), b"")
        assert decode_tuple_record(record) == (0, frozenset(), b"")

    def test_truncated_payload_rejected(self):
        record = encode_tuple_record(1, {2}, b"abcdef")
        with pytest.raises(SerializationError):
            decode_tuple_record(record[:-2])

    @given(
        st.integers(min_value=0, max_value=2**50),
        st.frozensets(st.integers(min_value=0, max_value=2**30), max_size=50),
        st.binary(max_size=120),
    )
    def test_roundtrip_property(self, tid, elements, payload):
        record = encode_tuple_record(tid, elements, payload)
        assert decode_tuple_record(record) == (tid, elements, payload)


class TestPartitionEntry:
    def test_fixed_width(self):
        assert partition_entry_size(20) == 28
        entry = encode_partition_entry(0xABCDEF, 7, 20)
        assert len(entry) == 28

    def test_roundtrip(self):
        entry = encode_partition_entry((1 << 159) | 5, 123456, 20)
        assert decode_partition_entry(entry, 0, 20) == ((1 << 159) | 5, 123456)

    def test_signature_overflow_rejected(self):
        with pytest.raises(SerializationError):
            encode_partition_entry(1 << 200, 1, 20)

    def test_truncated_rejected(self):
        entry = encode_partition_entry(1, 1, 20)
        with pytest.raises(SerializationError):
            decode_partition_entry(entry, 4, 20)

    @given(
        st.integers(min_value=0, max_value=(1 << 160) - 1),
        st.integers(min_value=0, max_value=2**60),
    )
    def test_roundtrip_property(self, signature, tid):
        entry = encode_partition_entry(signature, tid, 20)
        assert decode_partition_entry(entry, 0, 20) == (signature, tid)

    @pytest.mark.parametrize("signature_bytes", [1, 8, 20, 25])
    def test_run_decodes_to_the_same_entries(self, signature_bytes):
        top = (1 << (8 * signature_bytes)) - 1
        entries = [(top, 0), (0, 2**64 - 1), (top // 3, 123456)]
        run = b"".join(
            encode_partition_entry(signature, tid, signature_bytes)
            for signature, tid in entries
        )
        signatures, tids = decode_partition_entries(run, signature_bytes)
        assert signatures.shape == (3, signature_bytes)
        assert [
            (int.from_bytes(bytes(row), "big"), tid)
            for row, tid in zip(signatures, tids.tolist())
        ] == entries
        assert decode_partition_entries(b"", signature_bytes)[1].shape == (0,)

    def test_truncated_run_rejected(self):
        run = encode_partition_entry(1, 1, 20) * 3
        with pytest.raises(SerializationError):
            decode_partition_entries(run[:-1], 20)


# ----------------------------------------------------------------------
# The batch coders against the scalar ones (the oracle)
# ----------------------------------------------------------------------

#: Deltas on either side of every varint length boundary the issue names.
BOUNDARIES = [
    value + nudge
    for value in (127, 128, 16_383, 16_384, 2**21, 2**35, 2**62)
    for nudge in (-1, 0, 1)
]
PAYLOADS = {
    "empty": b"", "zeros": bytes(100), "all-0xff": b"\xff" * 100,
    "every-byte": bytes(range(256)), "mixed": b"\x00\x80\x7f",
}


def sets_of_deltas():
    """Sets built from deltas, so successive elements straddle the varint
    length boundaries instead of clustering where a uniform draw lands."""
    delta = st.one_of(
        st.sampled_from(BOUNDARIES), st.integers(0, 300), st.integers(0, 2**62)
    )

    def build(deltas):
        elements, current = [], 0
        for step in deltas:
            if current + step >= 2**63:
                break
            current += step
            elements.append(current)
        return frozenset(elements)

    return st.lists(delta, max_size=12).map(build)


def decoded_rows(records):
    """``decode_tuple_records`` unpacked to what the scalar decoder returns."""
    tids, elements, offsets = decode_tuple_records(records)
    assert len(offsets) == len(records) + 1 and offsets[-1] == len(elements)
    flat, bounds = elements.tolist(), offsets.tolist()
    return [
        (tid, flat[lo:hi])
        for tid, lo, hi in zip(tids.tolist(), bounds, bounds[1:])
    ]


def assert_batch_matches_scalar(tids, sets, payload):
    records = encode_tuple_records(tids, sets, payload)
    assert records == [
        encode_tuple_record(tid, elements, payload)
        for tid, elements in zip(tids, sets)
    ]
    scalar = [decode_tuple_record(record) for record in records]
    assert decoded_rows(records) == [
        (tid, sorted(elements)) for tid, elements, __ in scalar
    ]


class TestBatchTupleCodec:
    @settings(deadline=None, max_examples=150)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2**63 - 1), sets_of_deltas()), max_size=9
        ),
        st.sampled_from(sorted(PAYLOADS.values())),
    )
    def test_differential_property(self, rows, payload):
        assert_batch_matches_scalar(
            [tid for tid, __ in rows], [elements for __, elements in rows],
            payload,
        )

    @pytest.mark.parametrize("payload", sorted(PAYLOADS))
    def test_every_boundary_in_one_batch(self, payload):
        # An odd-sized batch: an empty set, a single element, then one
        # two-element set per boundary whose *delta* is the boundary.
        sets = [frozenset(), frozenset({2**63 - 1})] + [
            frozenset({5, 5 + delta}) for delta in BOUNDARIES
        ]
        tids = [0, 2**63 - 1] + [128 + delta for delta in BOUNDARIES]
        assert len(sets) % 2
        assert_batch_matches_scalar(tids, sets, PAYLOADS[payload])

    def test_batch_of_one_and_of_none(self):
        assert_batch_matches_scalar([300], [frozenset({1, 200, 70_000})], b"p")
        assert encode_tuple_records([], [], b"p") == []
        tids, elements, offsets = decode_tuple_records([])
        assert tids.tolist() == [] and elements.tolist() == []
        assert offsets.tolist() == [0]

    def test_unsorted_iterables_and_duplicates(self):
        # Lists are encoded as given (sorted, duplicates kept) and decode
        # to the set; generators are consumed once.
        sets = [[9, 3, 3, 5], [0, 0, 7, 7], (value for value in (4, 2))]
        records = encode_tuple_records([1, 2, 3], sets, b"")
        assert records == [
            encode_tuple_record(1, [9, 3, 3, 5], b""),
            encode_tuple_record(2, [0, 0, 7, 7], b""),
            encode_tuple_record(3, [4, 2], b""),
        ]
        assert decoded_rows(records) == [(1, [3, 5, 9]), (2, [0, 7]), (3, [2, 4])]

    @pytest.mark.parametrize("tids, sets", [
        ([1, 2**63 + 5], [frozenset({1, 2}), frozenset({7})]),
        ([1, 2], [frozenset({1, 2}), frozenset({2**63 + 1, 7})]),
        # Each delta fits int64, their sum does not.
        ([1, 2], [frozenset({2**62, 2**63 + 1}), frozenset({4})]),
    ])
    def test_values_past_int64_take_the_scalar_coders(self, tids, sets):
        records = encode_tuple_records(tids, sets, b"\xff\x00")
        assert records == [
            encode_tuple_record(tid, elements, b"\xff\x00")
            for tid, elements in zip(tids, sets)
        ]
        assert decoded_rows(records) == [
            (tid, sorted(elements)) for tid, elements in zip(tids, sets)
        ]

    @pytest.mark.parametrize("tids, sets", [
        ([-1], [frozenset({1})]),
        ([1, 2], [frozenset({3}), frozenset({-5, 3})]),
    ])
    def test_negative_inputs_raise_the_scalar_error(self, tids, sets):
        with pytest.raises(SerializationError) as scalar:
            [encode_tuple_record(t, e, b"") for t, e in zip(tids, sets)]
        with pytest.raises(SerializationError) as batch:
            encode_tuple_records(tids, sets, b"")
        assert str(batch.value) == str(scalar.value)

    def test_non_integer_elements_are_not_truncated(self):
        with pytest.raises(TypeError):
            encode_tuple_record(1, [1.5], b"")
        with pytest.raises(TypeError):
            encode_tuple_records([1], [[1.5]], b"")

    GOOD = encode_tuple_record(300, {1, 200, 70_000}, b"\xff" * 10)
    CORRUPT = {
        "empty": b"",
        "truncated in the tid varint": GOOD[:1],
        "truncated after the tid": GOOD[:2],
        "truncated in a delta varint": GOOD[:5],
        "truncated in the payload": GOOD[:-1],
        "lone continuation byte": b"\x80",
        "11-byte tid varint": b"\xff" * 11 + b"\x01" + GOOD,
        "11-byte delta varint":
            encode_uvarint(3) + encode_uvarint(1) + b"\xff" * 11 + b"\x00",
        "count beyond the record":
            encode_uvarint(3) + encode_uvarint(10**6) + b"\x01",
        "count beyond the deltas present":
            encode_uvarint(3) + encode_uvarint(2) + b"\x01\x81",
        "payload length beyond the record":
            encode_uvarint(3) + encode_uvarint(1) + b"\x05"
            + encode_uvarint(2**40) + b"x",
        "payload length near 2**63":
            encode_uvarint(3) + encode_uvarint(1) + b"\x05"
            + encode_uvarint(2**63 - 1) + b"x",
    }

    @pytest.mark.parametrize("name", sorted(CORRUPT))
    @pytest.mark.parametrize("position", ["alone", "first", "middle", "last"])
    def test_corrupt_records_raise_from_both_decoders(self, name, position):
        bad, good = self.CORRUPT[name], self.GOOD
        batch = {
            "alone": [bad], "first": [bad, good],
            "middle": [good, bad, good], "last": [good, bad],
        }[position]
        with pytest.raises(SerializationError) as scalar:
            decode_tuple_record(bad)
        with pytest.raises(SerializationError) as batched:
            decode_tuple_records(batch)
        assert str(batched.value) == str(scalar.value)

    def test_payload_bytes_do_not_confuse_the_terminator_scan(self):
        # All-continuation payloads run into the next record's header; a
        # payload of terminators offers spurious varints after the header.
        for payload in (b"\xff" * 100, b"\x00" * 100, bytes(range(256))):
            sets = [frozenset({130, 131}), frozenset(), frozenset({2**40})]
            records = [
                encode_tuple_record(tid, elements, payload)
                for tid, elements in zip((200, 201, 2**20), sets)
            ]
            assert decoded_rows(records) == [
                (200, [130, 131]), (201, []), (2**20, [2**40]),
            ]

    def test_arrays_are_int64_on_the_array_path(self):
        tids, elements, offsets = decode_tuple_records(
            [encode_tuple_record(5, {1, 2}, b"")]
        )
        assert tids.dtype == elements.dtype == offsets.dtype == np.int64
