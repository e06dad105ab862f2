"""Unit and property tests for the binary record encodings."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.storage.serialization import (
    decode_partition_entries,
    decode_partition_entry,
    decode_set,
    decode_tuple_record,
    decode_uvarint,
    encode_partition_entry,
    encode_set,
    encode_tuple_record,
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
