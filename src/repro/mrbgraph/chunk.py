"""On-disk chunk codec for the MRBG-Store.

A chunk is the preserved input of one Reduce instance: the ``K2`` plus the
list of ``(MK, V2)`` edges, "stored contiguously" (§3.4).  Chunks are the
basic I/O unit — the store "always reads, writes, and operates on entire
chunks".  The codec is a length-prefixed record of the binary serialization
format, so Table 4's byte counts come from real encoded sizes.

Edge lists dominate every store operation, so the codec special-cases the
flat shapes real workloads produce — every edge an ``(int MK, float V2)``
or ``(int MK, int V2)`` pair.  Such a list encodes to a fixed 23-byte
stride per edge::

    07 | 02 00 00 00 | 03 | <MK i64> | 04-or-03 | <V2 f64-or-i64>

which lets the encoder emit the whole run with one batched ``struct``
pack plus strided byte interleaving, and lets the decoder verify the
constant bytes with six strided ``memoryview`` comparisons and unpack
every edge in a single ``struct`` call.  Heterogeneous chunks fall back
to the generic recursive codec; both paths produce and accept byte-
identical encodings.

The codec's native form is two columns, ``mks`` and ``values``
(:func:`decode_chunk_columns`, :func:`encode_chunk_columns`), which the
store's merge path carries end to end; :func:`decode_chunk` and
:func:`encode_chunk` wrap them for callers that want ``Edge`` lists.
"""

from __future__ import annotations

import struct
from typing import Any, List, Optional, Sequence, Tuple

from repro.common.errors import SerializationError
from repro.common.serialization import (
    _TAG_FLOAT,
    _TAG_INT,
    _TAG_LIST,
    _TAG_TUPLE,
    _U32,
    as_view,
    decode,
    decode_record,
    encode_into,
    encoded_size,
)
from repro.mrbgraph.graph import Edge, edges_from_columns

#: Encoded bytes of one flat ``(int, int|float)`` edge: tuple header (5),
#: tagged i64 MK (9), tagged i64/f64 value (9).
_FLAT_EDGE_BYTES = 23

#: Fixed header of one flat edge: tuple tag + u32 count 2 + int tag.
_EDGE_HEADER = bytes((_TAG_TUPLE, 2, 0, 0, 0, _TAG_INT))

#: Minimum edge count before the batched path beats the generic encoder.
_FLAT_RUN_MIN = 4


def _encode_flat_edges(mks: Sequence[Any], values: Sequence[Any]) -> Optional[bytearray]:
    """Batch-encode a flat edge run at 23 bytes per edge (None if not flat)."""
    n = len(mks)
    if n < _FLAT_RUN_MIN or set(map(type, mks)) != {int}:
        return None
    value_types = set(map(type, values))
    if value_types == {float}:
        value_tag, fmt = _TAG_FLOAT, "<%dd"
    elif value_types == {int}:
        value_tag, fmt = _TAG_INT, "<%dq"
    else:
        return None
    try:
        packed_mk = struct.pack("<%dq" % n, *mks)
        packed_v = struct.pack(fmt % n, *values)
    except struct.error:
        return None  # an int overflowed i64: the generic path reports it
    out = bytearray(_FLAT_EDGE_BYTES * n)
    out[0::23] = bytes([_TAG_TUPLE]) * n
    out[1::23] = b"\x02" * n  # u32 little-endian count 2; bytes 2-4 stay 0
    out[5::23] = bytes([_TAG_INT]) * n
    for i in range(8):
        out[6 + i :: 23] = packed_mk[i::8]
    out[14::23] = bytes([value_tag]) * n
    for i in range(8):
        out[15 + i :: 23] = packed_v[i::8]
    return out


def encode_chunk_columns(k2: Any, mks: Sequence[Any], values: Sequence[Any]) -> bytes:
    """Encode one chunk from its edge columns (``mks[i]`` pairs ``values[i]``).

    The columnar form the merge path carries: no per-edge objects are
    built.  Produces exactly the bytes of :func:`encode_chunk` on the
    zipped edges.
    """
    body = bytearray(4)  # room for the u32 body length, filled last
    body.append(_TAG_TUPLE)
    body += _U32.pack(2)
    encode_into(k2, body)
    body.append(_TAG_LIST)
    body += _U32.pack(len(mks))
    flat = _encode_flat_edges(mks, values)
    if flat is not None:
        body += flat
    else:
        for edge in zip(mks, values):
            encode_into(edge, body)
    _U32.pack_into(body, 0, len(body) - 4)
    return bytes(body)


def encode_chunk(k2: Any, entries: List[Edge]) -> bytes:
    """Encode one chunk to its on-disk representation."""
    mks, values = zip(*entries) if entries else ((), ())
    return encode_chunk_columns(k2, mks, values)


def _decode_flat_edges(mv: memoryview, start: int, count: int):
    """Batch-decode ``count`` 23-byte-stride edges, or None on mismatch."""
    end = start + _FLAT_EDGE_BYTES * count
    # Verify every constant byte position with strided view comparisons.
    for rel, expected in enumerate(_EDGE_HEADER):
        if mv[start + rel : end : 23] != bytes([expected]) * count:
            return None
    value_tags = mv[start + 14 : end : 23]
    if value_tags == bytes([_TAG_FLOAT]) * count:
        flat = struct.unpack("<" + "6xq1xd" * count, mv[start:end])
    elif value_tags == bytes([_TAG_INT]) * count:
        flat = struct.unpack("<" + "6xq1xq" * count, mv[start:end])
    else:
        return None
    return flat[0::2], flat[1::2]


def decode_chunk_columns(buf, offset: int = 0) -> Tuple[Any, Sequence[Any], Sequence[Any], int]:
    """Decode one chunk from ``buf`` at ``offset`` into edge columns.

    Returns:
        ``(k2, mks, values, next_offset)``; ``mks[i]`` pairs
        ``values[i]``.  Flat chunks unpack straight into two tuples, so
        no per-edge object is built.

    Raises:
        SerializationError: on corrupt bytes or a non-chunk record.
    """
    mv = as_view(buf)
    try:
        (length,) = _U32.unpack_from(mv, offset)
    except struct.error as exc:
        raise SerializationError(f"corrupt encoding at offset {offset}") from exc
    body_start = offset + 4
    end = body_start + length
    if (
        end <= len(mv)
        and length >= 10
        and mv[body_start] == _TAG_TUPLE
        and _U32.unpack_from(mv, body_start + 1)[0] == 2
    ):
        k2, pos = decode(mv, body_start + 5)
        if pos + 5 <= end and mv[pos] == _TAG_LIST:
            (count,) = _U32.unpack_from(mv, pos + 1)
            payload_start = pos + 5
            if count and end - payload_start == _FLAT_EDGE_BYTES * count:
                columns = _decode_flat_edges(mv, payload_start, count)
                if columns is not None:
                    return k2, columns[0], columns[1], end
    return _decode_chunk_generic(mv, offset)


def decode_chunk(buf, offset: int = 0) -> Tuple[Any, List[Edge], int]:
    """Decode one chunk from ``buf`` at ``offset``.

    Returns:
        ``(k2, entries, next_offset)``.

    Raises:
        SerializationError: on corrupt bytes or a non-chunk record.
    """
    k2, mks, values, next_offset = decode_chunk_columns(buf, offset)
    return k2, edges_from_columns(mks, values), next_offset


def _decode_chunk_generic(mv: memoryview, offset: int) -> Tuple[Any, tuple, tuple, int]:
    k2, payload, next_offset = decode_record(mv, offset)
    if not isinstance(payload, list):
        raise SerializationError("chunk payload is not an edge list")
    for item in payload:
        if not isinstance(item, tuple) or len(item) != 2:
            raise SerializationError("chunk edge is not an (mk, value) pair")
    mks, values = zip(*payload) if payload else ((), ())
    return k2, mks, values, next_offset


def chunk_size(k2: Any, entries: List[Edge]) -> int:
    """Encoded byte size of a chunk, computed without encoding it.

    Matches ``len(encode_chunk(k2, entries))`` exactly: the 4-byte record
    length prefix, the pair and edge-list headers, and each value's
    :func:`repro.common.serialization.encoded_size`.
    """
    total = 4 + 5 + encoded_size(k2) + 5
    for mk, value in entries:
        total += 5 + encoded_size(mk) + encoded_size(value)
    return total
