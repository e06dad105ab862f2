"""Binary record encoding for the storage substrate.

The paper's testbed stores each tuple as ``(tuple identifier, set of
integers as a variable-size ordered list, fixed-size payload)`` and each
partition entry as ``(set signature, tuple identifier)``.  This module
provides the compact, deterministic byte encodings for both record kinds,
plus the low-level varint primitives they are built from.

Sets are delta-encoded: the elements are sorted and successive differences
are written as unsigned varints, which makes records for dense sets (the
common case for large set cardinalities) considerably smaller than
fixed-width encodings.
"""

from __future__ import annotations

import numpy as np

from ..errors import SerializationError

__all__ = [
    "encode_uvarint",
    "decode_uvarint",
    "encode_set",
    "decode_set",
    "encode_tuple_record",
    "decode_tuple_record",
    "encode_partition_entry",
    "decode_partition_entry",
    "decode_partition_entries",
    "partition_entry_size",
]


def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as a LEB128 unsigned varint."""
    if value < 0:
        raise SerializationError(f"uvarint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint from ``data`` at ``offset``.

    Returns ``(value, next_offset)``.
    """
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise SerializationError("truncated uvarint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise SerializationError("uvarint too long")


def encode_set(elements: frozenset[int] | set[int] | list[int]) -> bytes:
    """Encode a set of non-negative integers as a delta-coded varint list."""
    ordered = sorted(elements)
    if ordered and ordered[0] < 0:
        raise SerializationError("set elements must be non-negative integers")
    out = bytearray(encode_uvarint(len(ordered)))
    previous = 0
    for element in ordered:
        out += encode_uvarint(element - previous)
        previous = element
    return bytes(out)


def decode_set(data: bytes, offset: int = 0) -> tuple[frozenset[int], int]:
    """Decode a set encoded by :func:`encode_set`; returns ``(set, next_offset)``."""
    count, pos = decode_uvarint(data, offset)
    if count > len(data) - pos:
        # Each element costs at least one byte, so a count beyond the
        # remaining bytes is corrupt input, not just a large set; bail
        # out before looping billions of times on garbage.
        raise SerializationError(
            f"set claims {count} elements but only {len(data) - pos} "
            f"bytes remain"
        )
    elements = []
    current = 0
    for _ in range(count):
        delta, pos = decode_uvarint(data, pos)
        current += delta
        elements.append(current)
    return frozenset(elements), pos


def encode_tuple_record(tid: int, elements, payload: bytes) -> bytes:
    """Encode one relation tuple: tid, set, fixed payload.

    The payload length is stored explicitly so heterogeneous payload sizes
    round-trip correctly even though the paper uses a fixed 100-byte payload.
    """
    out = bytearray(encode_uvarint(tid))
    out += encode_set(elements)
    out += encode_uvarint(len(payload))
    out += payload
    return bytes(out)


def decode_tuple_record(data: bytes) -> tuple[int, frozenset[int], bytes]:
    """Decode a record produced by :func:`encode_tuple_record`."""
    tid, pos = decode_uvarint(data, 0)
    elements, pos = decode_set(data, pos)
    payload_len, pos = decode_uvarint(data, pos)
    end = pos + payload_len
    if end > len(data):
        raise SerializationError("truncated tuple record payload")
    return tid, elements, bytes(data[pos:end])


def partition_entry_size(signature_bytes: int) -> int:
    """Size in bytes of one fixed-width partition entry."""
    return signature_bytes + 8


def encode_partition_entry(signature: int, tid: int, signature_bytes: int) -> bytes:
    """Encode one (signature, tid) partition entry with fixed width.

    Fixed-width entries let the join phase slice portions without per-entry
    length bookkeeping, mirroring the paper's packed partition records.
    """
    try:
        sig = signature.to_bytes(signature_bytes, "big")
    except OverflowError as exc:
        raise SerializationError(
            f"signature does not fit in {signature_bytes} bytes"
        ) from exc
    return sig + tid.to_bytes(8, "big")


def decode_partition_entry(
    data: bytes, offset: int, signature_bytes: int
) -> tuple[int, int]:
    """Decode one entry written by :func:`encode_partition_entry`."""
    end = offset + signature_bytes + 8
    if end > len(data):
        raise SerializationError("truncated partition entry")
    signature = int.from_bytes(data[offset : offset + signature_bytes], "big")
    tid = int.from_bytes(data[offset + signature_bytes : end], "big")
    return signature, tid


def decode_partition_entries(
    data: bytes, signature_bytes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Decode a whole run of entries as arrays, without a Python int each.

    Returns views over ``data``: an ``(n, signature_bytes)`` uint8 matrix
    of big-endian signature rows and the ``(n,)`` big-endian ``u8`` tids.
    """
    if len(data) % partition_entry_size(signature_bytes):
        raise SerializationError("truncated partition entry")
    entries = np.frombuffer(
        data,
        dtype=[("signature", np.uint8, (signature_bytes,)), ("tid", ">u8")],
    )
    return entries["signature"], entries["tid"]
