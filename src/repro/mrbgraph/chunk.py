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

— the two-column case of the codec's fixed-width rows, so the edge run
is written by :func:`repro.common.serialization.pack_rows` and read back
by :func:`repro.common.serialization.unpack_rows`, each one batched
``struct`` call plus strided byte copies or comparisons.  Heterogeneous
chunks fall back to the generic recursive codec; both paths produce and
accept byte-identical encodings.

In memory a chunk is a :class:`ColumnarEdges`: an MK column and a value
column, never one object per edge.  A chunk decoded from the flat shape
also keeps a private copy of its encoded bytes and the value tag the
decoder verified, which is what makes a merge cost follow the delta
instead of the chunk (see :func:`repro.mrbgraph.graph.apply_delta`):

- a delta that only replaces values of MKs the chunk already holds is
  ``pack_into``-ed into a copy of those bytes
  (:meth:`ColumnarEdges.with_values`), and :func:`encode_chunk` hands the
  patched bytes back as they are;
- any other delta is merged on the columns, and :func:`encode_chunk`
  packs the result straight from them — the verified tag stands in for
  a type check of every old value, so only the delta's values are
  checked;
- chunks that are not flat carry neither bytes nor a proven type and
  take the generic codec.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from typing import Any, Dict, Iterator, NamedTuple, Optional, Tuple

from repro.common.errors import SerializationError
from repro.common.serialization import (
    _F64,
    _I64,
    _ROW_MIN,
    _ROW_TAGS,
    _TAG_INT,
    _TAG_LIST,
    _TAG_TUPLE,
    _U32,
    as_view,
    decode,
    decode_record,
    encode_into,
    encoded_size,
    pack_rows,
    unpack_rows,
)

#: Encoded bytes of one flat ``(int, int|float)`` edge: tuple header (5),
#: tagged i64 MK (9), tagged i64/f64 value (9).
_FLAT_EDGE_BYTES = 23

#: Offset of a flat edge's 8 value bytes (its value tag sits just before).
_FLAT_VALUE_OFFSET = 15

#: Row tags of a flat edge by exact value type, and value type by value tag.
_EDGE_TAGS = {value_type: bytes([_TAG_INT, tag]) for value_type, tag in _ROW_TAGS.items()}
_EDGE_VALUE_TYPES = {tag: value_type for value_type, tag in _ROW_TAGS.items()}

#: Packs one value of each flat value type over its 8 bytes in an edge.
_VALUE_PACKERS = {float: _F64, int: _I64}


class Edge(NamedTuple):
    """A preserved MRBGraph edge (within one Reduce instance's chunk)."""

    mk: int
    value: Any


class ColumnarEdges(Sequence):
    """A chunk's edges as two columns: a read-only ``Sequence[Edge]``.

    ``len``, truthiness, iteration, indexing and ``==`` against a list of
    :class:`Edge` (from either side) behave like the ``List[Edge]`` this
    replaces; :class:`Edge` objects are only built when an item is
    actually asked for.  Code on the merge path reads :attr:`mks` and
    :attr:`values` directly.

    Attributes:
        mks: the MK column (a tuple).
        values: the value column (a tuple, aligned with ``mks``).
        raw: the chunk's complete encoded record — length prefix
            included — when the columns were decoded from, or patched
            into, the flat 23-byte-stride shape; a private copy, never a
            view of the buffer it was read from.  ``None`` otherwise.
        value_type: ``float`` or ``int`` when every value is proven to
            be exactly of that type and every MK an exact ``int`` (the
            decoder verified the tags, or a merge checked what it
            added); ``None`` when nothing is proven.
    """

    __slots__ = ("mks", "values", "raw", "value_type")

    def __init__(
        self,
        mks: Tuple[Any, ...] = (),
        values: Tuple[Any, ...] = (),
        raw: Optional[bytes] = None,
        value_type: Optional[type] = None,
    ) -> None:
        self.mks = mks
        self.values = values
        self.raw = raw
        self.value_type = value_type

    def __len__(self) -> int:
        return len(self.mks)

    def __iter__(self) -> Iterator[Edge]:
        return map(Edge, self.mks, self.values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(Edge, self.mks[index], self.values[index]))
        return Edge(self.mks[index], self.values[index])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ColumnarEdges):
            return self.mks == other.mks and self.values == other.values
        if isinstance(other, (list, tuple)):
            return list(zip(self.mks, self.values)) == list(other)
        return NotImplemented

    __hash__ = None  # mutable-sequence semantics: equal by content, unhashable

    def __repr__(self) -> str:
        return f"ColumnarEdges({list(self)!r})"

    def with_values(self, updates: Dict[int, Any]) -> Optional["ColumnarEdges"]:
        """Replace the values at the given positions, patching the bytes.

        Only for a chunk that carries :attr:`raw` and whose
        ``updates`` values all have the exact type :attr:`value_type`:
        each new value is ``pack_into``-ed over the old one in a copy of
        the encoded bytes, so nothing is decoded, sorted or re-encoded.
        Returns ``None`` when a value does not fit the flat encoding (an
        ``int`` beyond 64 bits) — the caller then merges on the columns.
        """
        buf = bytearray(self.raw)
        base = len(buf) - _FLAT_EDGE_BYTES * len(self.mks) + _FLAT_VALUE_OFFSET
        pack_into = _VALUE_PACKERS[self.value_type].pack_into
        values = list(self.values)
        try:
            for position, value in updates.items():
                pack_into(buf, base + _FLAT_EDGE_BYTES * position, value)
                values[position] = value
        except struct.error:
            return None
        return ColumnarEdges(self.mks, tuple(values), bytes(buf), self.value_type)


def _flat_value_type(mks, values) -> Optional[type]:
    """The value type ``(mks, values)`` qualifies for the flat shape with."""
    if set(map(type, mks)) != {int}:
        return None
    value_types = set(map(type, values))
    if len(value_types) != 1:
        return None
    value_type = value_types.pop()
    return value_type if value_type in _EDGE_TAGS else None


def _finish_record(out: bytearray) -> bytes:
    """Fill in the reserved 4-byte length prefix and freeze the record."""
    _U32.pack_into(out, 0, len(out) - 4)
    return bytes(out)


def encode_chunk(k2: Any, entries: Sequence) -> bytes:
    """Encode one chunk to its on-disk representation.

    ``entries`` is a :class:`ColumnarEdges` or any sequence of
    ``(mk, value)`` pairs.  Columns that still carry the encoded bytes
    of exactly this ``k2`` and edge count (a chunk as decoded, or after
    :meth:`ColumnarEdges.with_values`) are returned as they are; columns
    with a proven ``value_type`` are packed without a type check; anything
    else is type-checked and takes the flat or the generic path.  All of
    them produce the same bytes for the same edges.
    """
    count = len(entries)
    out = bytearray(4)  # the record length, filled in by _finish_record
    out.append(_TAG_TUPLE)
    out += _U32.pack(2)
    encode_into(k2, out)
    out.append(_TAG_LIST)
    out += _U32.pack(count)
    value_type = None
    if type(entries) is ColumnarEdges:
        raw = entries.raw
        if (
            raw is not None
            and len(raw) == len(out) + _FLAT_EDGE_BYTES * count
            and raw.startswith(out[4:], 4)
        ):
            return raw
        mks, values, value_type = entries.mks, entries.values, entries.value_type
        pairs = zip(mks, values)
    else:
        pairs = map(tuple, entries)
        if count >= _ROW_MIN:
            mks, values = zip(*entries)
    if count >= _ROW_MIN:
        if value_type is None:
            value_type = _flat_value_type(mks, values)
        if value_type is not None:
            cells = [None] * (2 * count)
            cells[0::2] = mks
            cells[1::2] = values
            try:
                pack_rows(out, cells, _EDGE_TAGS[value_type])
                return _finish_record(out)
            except struct.error:
                pass  # an int overflowed i64: the generic path reports it
    for pair in pairs:
        encode_into(pair, out)
    return _finish_record(out)


def decoded_columns(entries: Sequence, raw: bytes) -> Optional[ColumnarEdges]:
    """What :func:`decode_chunk` would return for ``raw``, without decoding.

    ``raw`` is ``encode_chunk(k2, entries)``.  When ``entries`` are
    non-empty columns with a proven ``value_type``, every edge is an exact
    ``(int, value_type)`` pair that fits 64 bits (the encode succeeded),
    so ``raw`` is the flat 23-byte-stride record and decoding it yields
    these same columns with ``raw`` attached.  Returns ``None`` for
    anything unproven — those chunks are only ever decoded.
    """
    if (
        type(entries) is not ColumnarEdges
        or entries.value_type is None
        or not entries.mks
        or type(entries.mks) is not tuple
        or type(entries.values) is not tuple
    ):
        return None
    if entries.raw is raw:
        return entries
    return ColumnarEdges(entries.mks, entries.values, raw, entries.value_type)


def decode_chunk(buf, offset: int = 0) -> Tuple[Any, ColumnarEdges, int]:
    """Decode one chunk from ``buf`` at ``offset``.

    The edges own their memory: nothing in the result refers to ``buf``.

    Returns:
        ``(k2, entries, next_offset)``.

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
                value_type = _EDGE_VALUE_TYPES.get(mv[payload_start + 14])
                if value_type is not None:
                    _, cells = unpack_rows(mv, payload_start, count, _EDGE_TAGS[value_type])
                    if len(cells) == 2 * count:
                        raw = bytes(mv[offset:end])
                        return k2, ColumnarEdges(cells[0::2], cells[1::2], raw, value_type), end
    return _decode_chunk_generic(mv, offset)


def _decode_chunk_generic(mv: memoryview, offset: int) -> Tuple[Any, ColumnarEdges, int]:
    k2, payload, next_offset = decode_record(mv, offset)
    if not isinstance(payload, list):
        raise SerializationError("chunk payload is not an edge list")
    for item in payload:
        if not isinstance(item, tuple) or len(item) != 2:
            raise SerializationError("chunk edge is not an (mk, value) pair")
    mks, values = zip(*payload) if payload else ((), ())
    return k2, ColumnarEdges(mks, values), next_offset


def chunk_size(k2: Any, entries: Sequence) -> int:
    """Encoded byte size of a chunk, computed without encoding it.

    Matches ``len(encode_chunk(k2, entries))`` exactly: the 4-byte record
    length prefix, the pair and edge-list headers, and each value's
    :func:`repro.common.serialization.encoded_size`.
    """
    total = 4 + 5 + encoded_size(k2) + 5
    for mk, value in entries:
        total += 5 + encoded_size(mk) + encoded_size(value)
    return total
