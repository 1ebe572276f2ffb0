"""Binary serialization for records stored on disk by the MRBG-Store.

The format is a compact, self-describing, type-tagged encoding supporting
the value types that flow through the engines: ``None``, ``bool``, ``int``,
``float``, ``str``, ``bytes``, ``tuple``, ``list`` and ``dict``.  It is
used for the *real* on-disk MRBGraph chunk files, so Table 4's byte counts
are measured from genuine encoded sizes.

The encoding is deliberately pickle-free: it is deterministic, versioned by
construction (one tag byte per value) and safe to read back from untrusted
files.

Wire format (little-endian throughout)::

    value   := tag byte, payload
    0x00    None                (no payload)
    0x01    True                (no payload)
    0x02    False               (no payload)
    0x03    int                 i64
    0x04    float               f64
    0x05    str                 u32 byte length, UTF-8 bytes
    0x06    bytes               u32 length, raw bytes
    0x07    tuple               u32 count, that many values
    0x08    list                u32 count, that many values
    0x09    dict                u32 count, that many key/value value pairs

This module is on the hot path of every chunk and shuffle spill, so the
implementation favors bulk ``struct`` operations over per-value Python
work while producing byte-identical output to the original recursive
codec:

- the decoder is **zero-copy**: any buffer is wrapped in a single
  ``memoryview`` and every slice (including nested container payloads)
  stays a view until a leaf value forces materialization;
- decoding dispatches through a 256-entry table instead of an if-chain,
  and container payloads of scalars decode in a flat inline loop (no
  per-element function call, no recursion for flat collections);
- runs of fixed-width **rows** take a column-strided path (below), and
  so do runs of bare ``int``/``float`` elements, which are rows of one
  cell without a tuple header;
- :func:`decode_many` / :func:`encode_many` are bulk entry points for
  streams of concatenated top-level values (the MRBG-Store index file).

**Rows.**  A row is an exact ``tuple`` whose every element is an exact
``int`` that fits 64 bits or an exact ``float``.  A run of rows that
share one arity and one column type per position encodes to a fixed
stride of ``5 + 9 × arity`` bytes — ``07 | u32 arity | (tag, 8 bytes)*``
— which is what the MRBG-Store's int-keyed tables are: ``(key, offset,
length, batch)`` index entries, ``(key, offset, length)`` compaction
placements and ``(mk, value)`` chunk edges.  :func:`pack_rows` writes
such a run with one ``struct`` pack whose pad bytes leave the constant
bytes zero, then fills the tuple tag, arity and column tags with
strided slice assignments; :func:`unpack_rows` checks the constant
bytes with strided comparisons and reads every cell with one ``struct``
unpack that skips them as pad bytes.  Inside a list or tuple
(:func:`encode` / :func:`decode`) and across a stream
(:func:`encode_many` / :func:`decode_many`) the encoder takes this path
for a run of at least ``_ROW_MIN`` rows, and the decoder once it has
read one row with more values to follow; anything else — ``bool``
cells, ``int`` subclasses, ints beyond 64 bits, ragged or nested rows,
a byte that does not match — takes the per-value path.  The row path is
only a faster way to produce and read the same bytes: the wire format
is unchanged, and so are the values decoded and the errors raised.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import chain
from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

from repro.common.errors import SerializationError

_TAG_NONE = 0x00
_TAG_TRUE = 0x01
_TAG_FALSE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_BYTES = 0x06
_TAG_TUPLE = 0x07
_TAG_LIST = 0x08
_TAG_DICT = 0x09

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: Minimum run of bare ``int``/``float`` items worth :func:`pack_rows`;
#: below it the per-item path is cheaper than assembling the batch.
#: Measured with ``encode`` of a list on a 2-vCPU x86-64 host, CPython
#: 3.11 (best of 15 × 2000 calls): 3 items pack at 1.1–1.5× the per-item
#: time, 4 items at 0.9–1.0×, 8 items at 0.6×.  (The nine-copy
#: interleaving packer this replaced broke even only at ≈ 24 items.)
_RUN_MIN = 4

#: Minimum run of rows worth :func:`pack_rows` / :func:`unpack_rows`.
#: Same host and method, arity 2–4: encoding breaks even at 2–3 rows
#: (3 rows: 0.7–0.85× the per-value time), decoding at 4 (3 rows:
#: 1.15×, 4 rows: 0.9–1.05×, 5 rows: 0.8–0.9×) — 4 is the shortest run
#: neither direction loses on.  ``encode_chunk`` edges break even with
#: row encoding (2 edges: 1.0×, 3 edges: 0.8×).
_ROW_MIN = 4

#: Rows :func:`unpack_rows` checks in its first window; each later one is 4× larger.
_ROW_WINDOW = 64

#: Tag of each exact row-cell type, and the ``struct`` code of each tag.
_ROW_TAGS = {int: _TAG_INT, float: _TAG_FLOAT}
_ROW_CODES = {_TAG_INT: "q", _TAG_FLOAT: "d"}
_ROW_TAG_BYTES = bytes(_ROW_CODES)

# ---------------------------------------------------------------------- #
# encoding                                                               #
# ---------------------------------------------------------------------- #


def encode(value: Any) -> bytes:
    """Encode ``value`` to bytes.

    Raises:
        SerializationError: if the value (or a nested element) has an
            unsupported type, or an int exceeds 64 bits.
    """
    out = bytearray()
    encode_into(value, out)
    return bytes(out)


def encode_many(values) -> bytes:
    """Encode an iterable of values as one concatenated byte stream.

    The result is the concatenation of :func:`encode` of each value and
    round-trips through :func:`decode_many`.
    """
    out = bytearray()
    _encode_sequence(values if isinstance(values, (list, tuple)) else list(values), out)
    return bytes(out)


def encode_into(value: Any, out: bytearray) -> None:
    """Append the encoding of ``value`` to the ``out`` buffer."""
    if value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        out.append(_TAG_INT)
        try:
            out += _I64.pack(value)
        except struct.error as exc:
            raise SerializationError(f"int out of 64-bit range: {value}") from exc
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_TAG_STR)
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, bytes):
        out.append(_TAG_BYTES)
        out += _U32.pack(len(value))
        out += value
    elif isinstance(value, tuple):
        out.append(_TAG_TUPLE)
        out += _U32.pack(len(value))
        _encode_sequence(value, out)
    elif isinstance(value, list):
        out.append(_TAG_LIST)
        out += _U32.pack(len(value))
        _encode_sequence(value, out)
    elif isinstance(value, dict):
        out.append(_TAG_DICT)
        out += _U32.pack(len(value))
        for key, val in value.items():
            encode_into(key, out)
            encode_into(val, out)
    else:
        raise SerializationError(
            f"unsupported type for serialization: {type(value).__name__}"
        )


class _RowLayout(NamedTuple):
    """Byte layout of one fixed-width row, for a given tuple of column tags."""

    stride: int
    #: ``(position in the row, byte)`` of every constant byte.
    constants: Tuple[Tuple[int, bytes], ...]
    #: ``struct`` format of one row: a pad byte at each constant.
    row_format: str


@lru_cache(maxsize=64)
def _row_layout(tags: bytes, header: bool = True) -> Optional[_RowLayout]:
    """The layout of a row with column ``tags``, as a tuple or (no header) bare.

    None when a tag is not ``int``/``float``.
    """
    if not tags or tags.translate(None, _ROW_TAG_BYTES):
        return None
    prefix = bytes([_TAG_TUPLE]) + _U32.pack(len(tags)) if header else b""
    constants = [(pos, prefix[pos : pos + 1]) for pos in range(len(prefix))]
    constants += [
        (len(prefix) + 9 * column, tags[column : column + 1]) for column in range(len(tags))
    ]
    row_format = ("5x" if header else "") + "".join("x" + _ROW_CODES[tag] for tag in tags)
    return _RowLayout(len(prefix) + 9 * len(tags), tuple(constants), row_format)


def pack_rows(out: bytearray, cells: Sequence, tags: bytes, header: bool = True) -> None:
    """Append ``len(cells) // len(tags)`` fixed-width rows to ``out``.

    ``cells`` holds the rows' values row after row; column ``c`` of
    every row is exactly of the type ``tags[c]`` (``_TAG_INT`` or
    ``_TAG_FLOAT``) stands for, which the caller has checked.  With
    ``header`` each row is a tuple, ``07 | u32 arity | (tag, 8 bytes)*``;
    without it the rows are bare tagged values — a run of scalars.  One
    ``struct`` pack writes every cell and leaves the constant bytes zero;
    one strided slice assignment per nonzero constant byte fills them in.

    Raises:
        struct.error: when an int does not fit 64 bits; ``out`` is then
            left untouched.
    """
    layout = _row_layout(tags, header)
    count = len(cells) // len(tags)
    packed = struct.pack("<" + layout.row_format * count, *cells)
    start = len(out)
    out += packed
    for pos, byte in layout.constants:
        if byte != b"\x00":
            out[start + pos :: layout.stride] = byte * count


def _row_cells(rows: Sequence[tuple]) -> Optional[Tuple[bytes, list]]:
    """``(tags, cells)`` for :func:`pack_rows` if ``rows`` qualify, else None.

    ``rows`` are exact tuples of one nonzero arity; they qualify when
    every column holds values of one exact type, ``int`` or ``float``.
    """
    first = rows[0]
    width = len(first)
    tags = bytes(_ROW_TAGS.get(value.__class__, 0) for value in first)
    if 0 in tags:
        return None
    cells = list(chain.from_iterable(rows))
    if len(set(map(type, cells))) != 1:
        for column, value in enumerate(first):
            if set(map(type, cells[column::width])) != {value.__class__}:
                return None
    return tags, cells


def _run_end(seq, i: int, cls: type, width: int) -> int:
    """End of the run of exact-``cls`` items that starts at ``seq[i]``.

    Tuples in a run also share the length ``width``.  A sequence that is
    one run from its start is recognised with C-level passes; anything
    else is scanned item by item.
    """
    n = len(seq)
    if (
        i == 0
        and set(map(type, seq)) == {cls}
        and (cls is not tuple or set(map(len, seq)) == {width})
    ):
        return n
    j = i + 1
    if cls is tuple:
        while j < n and seq[j].__class__ is tuple and len(seq[j]) == width:
            j += 1
    else:
        while j < n and seq[j].__class__ is cls:
            j += 1
    return j


def _encode_sequence(seq, out: bytearray) -> None:
    """Encode the items of a tuple/list payload (or a value stream).

    Runs of bare ``int``/``float`` items and of fixed-width rows take
    :func:`pack_rows`; a run it cannot pack (an int beyond 64 bits) is
    encoded item by item, which raises the per-value error.
    """
    n = len(seq)
    i = 0
    while i < n:
        item = seq[i]
        cls = item.__class__
        j = i + 1
        if (cls is int or cls is float) and n - i >= _RUN_MIN:
            j = _run_end(seq, i, cls, 0)
            if j - i >= _RUN_MIN:
                try:
                    pack_rows(out, seq[i:j], bytes([_ROW_TAGS[cls]]), header=False)
                    i = j
                    continue
                except struct.error:
                    pass
        elif cls is tuple and item and n - i >= _ROW_MIN:
            j = _run_end(seq, i, tuple, len(item))
            if j - i >= _ROW_MIN:
                packable = _row_cells(seq[i:j])
                if packable is not None:
                    try:
                        pack_rows(out, packable[1], packable[0])
                        i = j
                        continue
                    except struct.error:
                        pass
        for k in range(i, j):
            encode_into(seq[k], out)
        i = j


def encoded_size(value: Any) -> int:
    """Byte length :func:`encode` would produce, without materializing it.

    Raises:
        SerializationError: same conditions as :func:`encode`.
    """
    if value is None or value is True or value is False:
        return 1
    if isinstance(value, int):
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise SerializationError(f"int out of 64-bit range: {value}")
        return 9
    if isinstance(value, float):
        return 9
    if isinstance(value, str):
        return 5 + (len(value) if value.isascii() else len(value.encode("utf-8")))
    if isinstance(value, bytes):
        return 5 + len(value)
    if isinstance(value, (tuple, list)):
        return 5 + sum(encoded_size(item) for item in value)
    if isinstance(value, dict):
        return 5 + sum(
            encoded_size(key) + encoded_size(val) for key, val in value.items()
        )
    raise SerializationError(
        f"unsupported type for serialization: {type(value).__name__}"
    )


# ---------------------------------------------------------------------- #
# decoding                                                               #
# ---------------------------------------------------------------------- #


def as_view(buf) -> memoryview:
    """Wrap ``buf`` in a (zero-copy) flat byte ``memoryview``."""
    return buf if type(buf) is memoryview else memoryview(buf)


def decode(buf, offset: int = 0) -> Tuple[Any, int]:
    """Decode one value from ``buf`` starting at ``offset``.

    ``buf`` may be ``bytes``, ``bytearray`` or a ``memoryview``; decoding
    never copies container payloads, only leaf values.

    Returns:
        ``(value, next_offset)``.

    Raises:
        SerializationError: on truncated or corrupt input.
    """
    try:
        return _decode_at(as_view(buf), offset)
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise SerializationError(f"corrupt encoding at offset {offset}") from exc


def decode_many(buf) -> List[Any]:
    """Decode every concatenated top-level value in ``buf``.

    The bulk entry point for value streams (e.g. the MRBG-Store index
    file): one ``memoryview`` wrap, then repeated in-place decodes.  A
    top-level row (see :func:`_decode_items`) opens a run of rows read
    by :func:`unpack_rows`.
    """
    mv = as_view(buf)
    end = len(mv)
    values: List[Any] = []
    offset = 0
    while offset < end:
        start = offset
        try:
            value, offset = _decode_at(mv, offset)
        except (struct.error, IndexError, UnicodeDecodeError) as exc:
            raise SerializationError(f"corrupt encoding at offset {offset}") from exc
        values.append(value)
        if mv[start] == _TAG_TUPLE and offset - start == 5 + 9 * len(value):
            rows, offset = _decode_rows(mv, offset, end)
            values += rows
    return values


def _dec_none(mv, offset):
    return None, offset


def _dec_true(mv, offset):
    return True, offset


def _dec_false(mv, offset):
    return False, offset


def _dec_int(mv, offset):
    return _I64.unpack_from(mv, offset)[0], offset + 8


def _dec_float(mv, offset):
    return _F64.unpack_from(mv, offset)[0], offset + 8


def _dec_str(mv, offset):
    (length,) = _U32.unpack_from(mv, offset)
    offset += 4
    end = offset + length
    if end > len(mv):
        raise SerializationError("truncated string")
    return str(mv[offset:end], "utf-8"), end


def _dec_bytes(mv, offset):
    (length,) = _U32.unpack_from(mv, offset)
    offset += 4
    end = offset + length
    if end > len(mv):
        raise SerializationError("truncated bytes")
    return bytes(mv[offset:end]), end


def _decode_items(mv, offset: int, count: int) -> Tuple[list, int]:
    """Decode ``count`` consecutive values with scalars inlined.

    Flat collections (the common case: edge lists, index entries, numeric
    payloads) decode in this single loop without recursion; only nested
    containers and string-ish leaves dispatch back through the table.  A
    tuple whose size shows it is a row (5 + 9 bytes per item) followed
    by at least ``_ROW_MIN - 1`` more items opens a run of rows, read in
    one go by :func:`unpack_rows`.
    """
    items: list = []
    append = items.append
    unpack_i64 = _I64.unpack_from
    unpack_f64 = _F64.unpack_from
    remaining = count
    while remaining:
        remaining -= 1
        tag = mv[offset]
        if tag == _TAG_INT:
            append(unpack_i64(mv, offset + 1)[0])
            offset += 9
        elif tag == _TAG_FLOAT:
            append(unpack_f64(mv, offset + 1)[0])
            offset += 9
        elif tag == _TAG_NONE:
            append(None)
            offset += 1
        elif tag == _TAG_TRUE:
            append(True)
            offset += 1
        elif tag == _TAG_FALSE:
            append(False)
            offset += 1
        else:
            start = offset
            value, offset = _decode_at(mv, offset)
            append(value)
            if (
                tag == _TAG_TUPLE
                and remaining >= _ROW_MIN - 1
                and offset - start == 5 + 9 * len(value)
            ):
                rows, offset = _decode_rows(mv, offset, remaining)
                items += rows
                remaining -= len(rows)
    return items, offset


def unpack_rows(
    mv: memoryview, offset: int, limit: int, tags: Optional[bytes] = None
) -> Tuple[bytes, tuple]:
    """Read the run of at most ``limit`` fixed-width rows at ``offset``.

    ``tags`` are the column tags the rows must have; by default the
    first row's.  The run goes on while the next row's constant bytes —
    tuple tag, arity, column tags — are the expected ones.  They are
    checked with one strided slice comparison per position, over windows
    of rows that start at ``_ROW_WINDOW`` and grow fourfold, so finding
    a run costs time in proportion to its length, not to ``limit``.  One
    ``struct`` unpack, with a pad byte at each constant, then reads
    every cell.

    Returns:
        ``(tags, cells)``: the column tags and the run's values row
        after row (``len(cells) // len(tags)`` rows), or ``(b"", ())``
        when the value at ``offset`` is not such a row.  Never raises:
        bytes that are not rows are left to the per-value decoder.
    """
    end = len(mv)
    if tags is None:
        if offset + 5 > end or mv[offset] != _TAG_TUPLE:
            return b"", ()
        width = _U32.unpack_from(mv, offset + 1)[0]
        tags = bytes(mv[offset + 5 : offset + 5 + 9 * width : 9])
        if len(tags) != width:  # the row would run past the buffer
            return b"", ()
    layout = _row_layout(tags)
    if layout is None:
        return b"", ()
    stride, constants, row_format = layout
    if limit > (end - offset) // stride:
        limit = (end - offset) // stride
    count = 0
    window = _ROW_WINDOW
    while count < limit:
        if window > limit - count:
            window = limit - count
        base = offset + count * stride
        rows = mv[base : base + window * stride].tobytes()
        matched = window
        for pos, byte in constants:
            column = rows[pos::stride]
            if column != byte * window:
                matched = min(matched, window - len(column.lstrip(byte)))
        count += matched
        if matched < window:
            break
        window *= 4
    if not count:
        return b"", ()
    return tags, struct.unpack_from("<" + row_format * count, mv, offset)


def _decode_rows(mv: memoryview, offset: int, limit: int) -> Tuple[list, int]:
    """Decode a run of rows at ``offset`` as tuples; ``([], offset)`` if none."""
    tags, cells = unpack_rows(mv, offset, limit)
    if not cells:
        return [], offset
    width = len(tags)
    rows = list(zip(*[iter(cells)] * width))
    return rows, offset + len(rows) * (5 + 9 * width)


def _dec_tuple(mv, offset):
    (count,) = _U32.unpack_from(mv, offset)
    items, offset = _decode_items(mv, offset + 4, count)
    return tuple(items), offset


def _dec_list(mv, offset):
    (count,) = _U32.unpack_from(mv, offset)
    return _decode_items(mv, offset + 4, count)


def _dec_dict(mv, offset):
    (count,) = _U32.unpack_from(mv, offset)
    offset += 4
    result = {}
    for _ in range(count):
        key, offset = _decode_at(mv, offset)
        val, offset = _decode_at(mv, offset)
        try:
            result[key] = val
        except TypeError as exc:  # corrupt input decoding to unhashable key
            raise SerializationError("dict key is unhashable") from exc
    return result, offset


#: Tag-indexed dispatch table; unknown tags stay ``None``.
_DECODERS: list = [None] * 256
_DECODERS[_TAG_NONE] = _dec_none
_DECODERS[_TAG_TRUE] = _dec_true
_DECODERS[_TAG_FALSE] = _dec_false
_DECODERS[_TAG_INT] = _dec_int
_DECODERS[_TAG_FLOAT] = _dec_float
_DECODERS[_TAG_STR] = _dec_str
_DECODERS[_TAG_BYTES] = _dec_bytes
_DECODERS[_TAG_TUPLE] = _dec_tuple
_DECODERS[_TAG_LIST] = _dec_list
_DECODERS[_TAG_DICT] = _dec_dict


def _decode_at(mv: memoryview, offset: int) -> Tuple[Any, int]:
    tag = mv[offset]
    handler = _DECODERS[tag]
    if handler is None:
        raise SerializationError(f"unknown tag byte 0x{tag:02x}")
    return handler(mv, offset + 1)


# ---------------------------------------------------------------------- #
# length-prefixed records                                                #
# ---------------------------------------------------------------------- #


def encode_record(key: Any, value: Any) -> bytes:
    """Encode a ``(key, value)`` record as one length-prefixed unit."""
    body = encode((key, value))
    return _U32.pack(len(body)) + body


def decode_record(buf, offset: int = 0) -> Tuple[Any, Any, int]:
    """Decode one record produced by :func:`encode_record`.

    Returns:
        ``(key, value, next_offset)``.
    """
    mv = as_view(buf)
    try:
        (length,) = _U32.unpack_from(mv, offset)
    except struct.error as exc:
        raise SerializationError(f"corrupt encoding at offset {offset}") from exc
    offset += 4
    end = offset + length
    if end > len(mv):
        raise SerializationError("truncated record")
    pair, consumed = decode(mv, offset)
    if consumed != end:
        raise SerializationError("record length mismatch")
    if not isinstance(pair, tuple) or len(pair) != 2:
        raise SerializationError("record body is not a (key, value) pair")
    return pair[0], pair[1], end
