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

Tuple records have two coders for one format.  The scalar pair
(:func:`encode_tuple_record` / :func:`decode_tuple_record`) is the
one-record API and the oracle; the batch pair (:func:`encode_tuple_records`
/ :func:`decode_tuple_records`) does the same work for a run of records
with array operations and no per-element Python (DESIGN.md, "Columnar
batch path").
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from ..errors import SerializationError

__all__ = [
    "encode_uvarint",
    "decode_uvarint",
    "encode_set",
    "decode_set",
    "encode_tuple_record",
    "decode_tuple_record",
    "encode_tuple_records",
    "decode_tuple_records",
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


# ----------------------------------------------------------------------
# The batch coders: the same bytes, an array at a time
# ----------------------------------------------------------------------

#: A value below ``_VARINT_STEPS[i]`` takes at most ``i + 1`` varint bytes;
#: nine bytes carry 63 bits, i.e. every non-negative int64.
_VARINT_STEPS = np.array([1 << (7 * n) for n in range(1, 9)], dtype=np.int64)
_INT64_VARINT_BYTES = 9


def _segment_sort(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``values`` sorted within each run of equal (ascending) ``rows``."""
    if not len(values):
        return values
    shift = int(values.max()).bit_length()
    if shift + int(rows[-1]).bit_length() < 63:
        # One sort of (row, value) packed into a word: several times
        # cheaper than a sort per set or a two-key lexsort.
        keys = (rows << shift) | values
        keys.sort()
        return keys & ((1 << shift) - 1)
    return values[np.lexsort((values, rows))]


def encode_tuple_records(tids, sets, payload: bytes) -> list[bytes]:
    """:func:`encode_tuple_record` for a run of tuples sharing one payload.

    ``[encode_tuple_record(tid, elements, payload) for ...]`` byte for
    byte: the values of the whole run (tid, count, element deltas, payload
    length per record) are laid out in one array, their varint lengths
    found by comparison and their bytes scattered to their offsets, seven
    bits per pass.  A tid or element that is not an integer fitting int64
    sends the run through the scalar encoder, which encodes or rejects it
    as it always did.
    """
    sets = [
        elements if hasattr(elements, "__len__") else list(elements)
        for elements in sets
    ]
    count = len(sets)
    # NumPy infers int64 exactly when every value is an integer that fits.
    members = list(chain.from_iterable(sets))
    flat = np.array(members) if members else np.zeros(0, dtype=np.int64)
    tid_values = np.array(tids)
    if (
        not count
        or flat.dtype != np.int64 or tid_values.dtype != np.int64
        or tid_values.shape != (count,)
        or (flat.size and flat.min() < 0) or tid_values.min() < 0
    ):
        # The scalar encoder handles the wide value, or raises on the
        # first record it cannot encode.
        return [
            encode_tuple_record(tid, elements, payload)
            for tid, elements in zip(tids, sets, strict=True)
        ]
    cardinalities = np.fromiter(map(len, sets), dtype=np.int64, count=count)
    ends = np.cumsum(cardinalities)
    starts = ends - cardinalities
    rows = np.repeat(np.arange(count), cardinalities)
    flat = _segment_sort(flat, rows)
    deltas = flat.copy()
    deltas[1:] -= flat[:-1]
    firsts = starts[cardinalities > 0]
    deltas[firsts] = flat[firsts]

    # Record i's values: [tid, count, delta..., payload length].
    head = starts + 3 * np.arange(count)
    tail = head + 2 + cardinalities
    values = np.empty(flat.size + 3 * count, dtype=np.int64)
    values[head] = tid_values
    values[head + 1] = cardinalities
    values[tail] = len(payload)
    values[np.arange(flat.size) + 3 * rows + 2] = deltas
    value_record = np.repeat(np.arange(count), cardinalities + 3)

    widths = np.searchsorted(_VARINT_STEPS, values, side="right") + 1
    # Each value's first byte: the varint bytes before it plus one payload
    # per earlier record.
    positions = np.cumsum(widths) - widths + len(payload) * value_record
    record_ends = positions[tail] + widths[tail] + len(payload)
    out = np.zeros(int(record_ends[-1]), dtype=np.uint8)
    live = np.arange(values.size)
    for step in range(int(widths.max())):
        live = live[widths[live] > step]
        chunk = (values[live] >> (7 * step)) & 0x7F
        chunk[widths[live] > step + 1] |= 0x80
        out[positions[live] + step] = chunk
    if payload.strip(b"\x00"):
        at = record_ends[:, None] - len(payload) + np.arange(len(payload))
        out[at] = np.frombuffer(payload, dtype=np.uint8)
    buffer = out.tobytes()
    bounds = [0] + record_ends.tolist()
    return [buffer[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def decode_tuple_records(
    records: "list[bytes]",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`decode_tuple_record` for a run of records, as arrays.

    Returns ``(tids, elements, offsets)``: the ``n`` tuple identifiers, one
    flat array holding every set's elements in ascending order, and
    ``n + 1`` offsets — record ``i``'s set is
    ``elements[offsets[i]:offsets[i + 1]]``.  Payloads are located (their
    length is checked against the record) but not copied.

    The varint terminators (bytes below 0x80) of the joined records are
    found in one comparison; a record's header varints are the terminators
    from its first byte on, so payload bytes — whatever their value — lie
    beyond the last one it uses.  Anything the arrays cannot express or
    vouch for (a corrupt record, a value past int64) sends the run through
    :func:`decode_tuple_record`, which raises that record's
    :class:`SerializationError` or returns the wide value; the arrays then
    have ``object`` dtype.
    """
    decoded = _decode_tuple_records(records) if records else None
    if decoded is not None:
        return decoded
    rows = [decode_tuple_record(record) for record in records]
    sets = [sorted(elements) for __, elements, __ in rows]
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(elements) for elements in sets], out=offsets[1:])
    return (
        _int_array([tid for tid, __, __ in rows]),
        _int_array(list(chain.from_iterable(sets))),
        offsets,
    )


def _int_array(values: "list[int]") -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _decode_tuple_records(records):
    """The array decoder proper, for a non-empty run; ``None`` where only
    the scalar one will do."""
    count = len(records)
    lengths = np.fromiter(map(len, records), dtype=np.int64, count=count)
    record_ends = np.cumsum(lengths)
    record_starts = record_ends - lengths
    data = np.frombuffer(b"".join(records), dtype=np.uint8)
    terminators = np.flatnonzero(data < 0x80)
    # Looking up a varint the data does not hold lands on this sentinel,
    # which lies beyond every record.
    terminators = np.append(terminators, data.size)
    last = terminators.size - 1
    first = np.searchsorted(terminators, record_starts)

    # Varints 0 and 1 of each record: tid and element count.
    tid_end = terminators[np.minimum(first, last)]
    count_end = terminators[np.minimum(first + 1, last)]
    tid_width = tid_end - record_starts + 1
    count_width = count_end - tid_end
    if (
        (count_end >= record_ends).any()
        or tid_width.max() > _INT64_VARINT_BYTES
        or count_width.max() > _INT64_VARINT_BYTES
    ):
        return None
    tids = _read_varints(data, record_starts, tid_width)
    cardinalities = _read_varints(data, tid_end + 1, count_width)
    if (cardinalities > record_ends - count_end - 1).any():
        return None

    # Varints 2 .. count + 2: the deltas, then the payload length.
    runs = cardinalities + 1
    run_ends = np.cumsum(runs)
    run_starts = run_ends - runs
    which = np.repeat(first + 2 - run_starts, runs) + np.arange(run_ends[-1])
    value_ends = terminators[np.minimum(which, last)]
    value_starts = np.empty_like(value_ends)
    value_starts[1:] = value_ends[:-1] + 1
    value_starts[run_starts] = count_end + 1
    widths = value_ends - value_starts + 1
    payload_at = run_ends - 1
    if (
        (value_ends[payload_at] >= record_ends).any()
        or widths.max() > _INT64_VARINT_BYTES
    ):
        return None
    values = _read_varints(data, value_starts, widths)
    if (values[payload_at] > record_ends - value_ends[payload_at] - 1).any():
        return None

    is_delta = np.ones(values.size, dtype=bool)
    is_delta[payload_at] = False
    deltas = values[is_delta]
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(cardinalities, out=offsets[1:])
    # Running sums restart at each record: take the batch-wide sum and
    # subtract what preceded the record.  int64 wraps, so the differences
    # are right whenever they fit; a set that does not fit shows up as a
    # negative element (each delta is below 2**63).
    sums = np.cumsum(deltas)
    before = np.concatenate(([0], sums))[offsets[:-1]]
    elements = sums - np.repeat(before, cardinalities)
    if elements.size and elements.min() < 0:
        return None
    # A zero delta past a set's first element repeats it (a record encoded
    # from a list with duplicates); the scalar decoder's frozenset drops it.
    repeated = deltas == 0
    repeated[offsets[:-1][cardinalities > 0]] = False
    if repeated.any():
        elements = elements[~repeated]
        kept = np.concatenate(([0], np.cumsum(~repeated)))
        offsets = kept[offsets]
    return tids, elements, offsets


def _read_varints(
    data: np.ndarray, starts: np.ndarray, widths: np.ndarray
) -> np.ndarray:
    """Values of the varints at ``starts`` (each ``widths`` <= 9 bytes long)."""
    values = (data[starts] & 0x7F).astype(np.int64)
    live = np.arange(starts.size)
    for step in range(1, int(widths.max())):
        live = live[widths[live] > step]
        values[live] |= (data[starts[live] + step] & 0x7F).astype(np.int64) << (
            7 * step
        )
    return values


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
