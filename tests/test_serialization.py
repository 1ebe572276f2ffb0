"""Unit and property tests for the binary serialization format."""

from __future__ import annotations

import enum
import math
import struct
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import serialization
from repro.common.errors import SerializationError
from repro.common.serialization import (
    _ROW_MIN,
    _RUN_MIN,
    decode,
    decode_many,
    decode_record,
    encode,
    encode_many,
    encode_record,
    encoded_size,
)


def reference_encode(value) -> bytes:
    """The wire format one value at a time: no batched runs, no rows."""
    if value is None:
        return b"\x00"
    if value is True:
        return b"\x01"
    if value is False:
        return b"\x02"
    if isinstance(value, int):
        if not -(1 << 63) <= value < (1 << 63):
            raise SerializationError(f"int out of 64-bit range: {value}")
        return b"\x03" + struct.pack("<q", value)
    if isinstance(value, float):
        return b"\x04" + struct.pack("<d", value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"\x05" + struct.pack("<I", len(raw)) + raw
    if isinstance(value, bytes):
        return b"\x06" + struct.pack("<I", len(value)) + value
    if isinstance(value, (tuple, list)):
        tag = b"\x07" if isinstance(value, tuple) else b"\x08"
        return tag + struct.pack("<I", len(value)) + b"".join(map(reference_encode, value))
    assert isinstance(value, dict)
    return b"\x09" + struct.pack("<I", len(value)) + b"".join(
        reference_encode(k) + reference_encode(v) for k, v in value.items()
    )


def same(a, b) -> bool:
    """Equality that also tells NaN, -0.0 and bool apart as the codec does."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    if isinstance(a, dict) and isinstance(b, dict):
        return len(a) == len(b) and all(map(same, a.items(), b.items()))
    if isinstance(a, (tuple, list)) or isinstance(b, (tuple, list)):
        return (
            isinstance(a, tuple) == isinstance(b, tuple)
            and isinstance(a, list) == isinstance(b, list)
            and len(a) == len(b)
            and all(map(same, a, b))
        )
    return (type(a) is bool) == (type(b) is bool) and a == b


class TestEncodeDecode:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**62,
            -(2**62),
            0.0,
            3.14159,
            float("inf"),
            float("-inf"),
            "",
            "hello",
            "ünïcodé ♥",
            b"",
            b"\x00\xff",
            (),
            (1, 2, 3),
            [1, "two", 3.0],
            {"a": 1, "b": [2, 3]},
            (1, ("nested", (2.5, None))),
        ],
    )
    def test_roundtrip(self, value):
        decoded, offset = decode(encode(value))
        assert decoded == value
        assert offset == len(encode(value))

    def test_nan_roundtrip(self):
        decoded, _ = decode(encode(float("nan")))
        assert math.isnan(decoded)

    def test_unsupported_type_raises(self):
        with pytest.raises(SerializationError):
            encode(object())

    def test_oversized_int_raises(self):
        with pytest.raises(SerializationError):
            encode(2**70)

    def test_truncated_input_raises(self):
        raw = encode("hello world")
        with pytest.raises(SerializationError):
            decode(raw[: len(raw) - 3])

    def test_unknown_tag_raises(self):
        with pytest.raises(SerializationError):
            decode(b"\xfe")

    def test_decode_at_offset(self):
        raw = encode(1) + encode("two")
        first, offset = decode(raw, 0)
        second, end = decode(raw, offset)
        assert first == 1
        assert second == "two"
        assert end == len(raw)


class TestRecords:
    def test_record_roundtrip(self):
        raw = encode_record("key", [1, 2, 3])
        key, value, offset = decode_record(raw)
        assert key == "key"
        assert value == [1, 2, 3]
        assert offset == len(raw)

    def test_concatenated_records(self):
        raw = encode_record(1, "a") + encode_record(2, "b")
        k1, v1, offset = decode_record(raw, 0)
        k2, v2, end = decode_record(raw, offset)
        assert (k1, v1, k2, v2) == (1, "a", 2, "b")
        assert end == len(raw)

    def test_truncated_record_raises(self):
        raw = encode_record("key", "value")
        with pytest.raises(SerializationError):
            decode_record(raw[:-1])


# A strategy of values covering the full supported type lattice.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=20,
)


class TestProperties:
    @given(_values)
    @settings(max_examples=200)
    def test_roundtrip_property(self, value):
        decoded, consumed = decode(encode(value))
        assert decoded == value
        assert consumed == len(encode(value))

    @given(_values, _values)
    @settings(max_examples=100)
    def test_record_roundtrip_property(self, key, value):
        raw = encode_record(key, value)
        got_key, got_value, consumed = decode_record(raw)
        assert got_key == key
        assert got_value == value
        assert consumed == len(raw)

    @given(_values)
    @settings(max_examples=100)
    def test_encoding_deterministic(self, value):
        assert encode(value) == encode(value)


class TestBulkAndViews:
    """Coverage for the zero-copy decoder's bulk and parity guarantees."""

    def test_memoryview_bytes_parity(self):
        for value in [1, 2.5, "text ♥", b"\x01\x02", (1, [2.0, "x"]), {"k": (1, 2)}]:
            raw = encode(value)
            from_bytes = decode(raw)
            from_view = decode(memoryview(raw))
            from_bytearray = decode(bytearray(raw))
            assert from_bytes == from_view == from_bytearray

    def test_record_accepts_memoryview(self):
        raw = encode_record("key", [1.0, 2.0])
        assert decode_record(memoryview(raw)) == decode_record(raw)

    def test_decode_many_roundtrip(self):
        values = [1, "two", (3.0, None), {"k": [True, False]}, b"\x00"]
        raw = encode_many(values)
        assert raw == b"".join(encode(v) for v in values)
        assert decode_many(raw) == values
        assert decode_many(memoryview(raw)) == values

    def test_decode_many_empty(self):
        assert decode_many(b"") == []

    def test_decode_many_truncated_raises(self):
        raw = encode_many([1, "hello world"])
        with pytest.raises(SerializationError):
            decode_many(raw[:-2])

    def test_encoded_size_matches_encode(self):
        for value in [None, True, 7, -1.5, "ünïcodé ♥", "ascii", b"xy",
                      (1, 2, 3), [1.0] * 10, {"a": (None, [2])}]:
            assert encoded_size(value) == len(encode(value))

    def test_encoded_size_rejects_unsupported(self):
        with pytest.raises(SerializationError):
            encoded_size(object())
        with pytest.raises(SerializationError):
            encoded_size(2**70)


class TestHomogeneousRuns:
    """The batched encoder path must stay byte-identical to item-wise."""

    @pytest.mark.parametrize(
        "value",
        [
            [1, 2, 3, 4, 5, 6, 7, 8],
            (10**12, -(10**12), 0, 5, 7),
            [1.5] * 100,
            [True, 1, 1.0, 2.0, 3.0, 4.0, 5.0, "end"],
            [1, 2, 3, 2.0, 3.0, 4.0, 5.0],            # adjacent runs
            [1, 2, 3],                                 # below run threshold
            list(range(_RUN_MIN - 1)),                 # one short of a run
            list(range(_RUN_MIN)),                     # exactly a run
            [0.5] * (_RUN_MIN - 1),
            (0.5,) * _RUN_MIN,
            [(1, 2.0)] * (_ROW_MIN - 1),               # one short of a row run
            [(1, 2.0)] * _ROW_MIN,                     # exactly a row run
            [(1, 2, 3, 4)] * _ROW_MIN + ["end"] + [(5, 6, 7, 8)] * _ROW_MIN,
        ],
    )
    def test_run_encoding_matches_itemwise(self, value):
        # item-wise reference: container header + concatenated encodings
        reference = bytearray()
        reference.append(0x07 if isinstance(value, tuple) else 0x08)
        reference += len(value).to_bytes(4, "little")
        for item in value:
            reference += encode(item)
        assert encode(value) == bytes(reference)
        decoded, consumed = decode(encode(value))
        assert decoded == value
        assert consumed == len(encode(value))

    def test_run_with_out_of_range_int_raises(self):
        with pytest.raises(SerializationError):
            encode([1, 2, 3, 2**70, 5])


class _Color(enum.IntEnum):
    RED = 1
    BLUE = 2


#: Row cells by column type, with the i64 edges, NaN and -0.0 overweighted.
_INT_CELLS = st.one_of(
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
    st.sampled_from([-(1 << 63), (1 << 63) - 1, -1, 0]),
)
_FLOAT_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), -0.0, 0.0, float("inf")]),
)
#: Values that must knock a row off the row path.
_ODD_CELLS = st.one_of(
    st.booleans(),
    st.sampled_from(list(_Color)),
    st.integers(min_value=1 << 63, max_value=1 << 70),
    st.integers(min_value=-(1 << 70), max_value=-(1 << 63) - 1),
    st.none(),
    st.text(max_size=3),
    st.tuples(st.integers(min_value=0, max_value=9)),
)


@st.composite
def row_tables(draw):
    """Runs of 0 to well past ``_ROW_MIN`` rows of arity 1–6, some spoilt.

    Every column is all-int or all-float; then a few rows may get an odd
    cell (bool, IntEnum, an int beyond 64 bits, ...), lose or gain a
    cell, nest a tuple, or be replaced by a non-row value.
    """
    width = draw(st.integers(min_value=1, max_value=6))
    kinds = draw(st.lists(st.sampled_from([_INT_CELLS, _FLOAT_CELLS]), min_size=width,
                          max_size=width))
    count = draw(st.integers(min_value=0, max_value=4 * _ROW_MIN + 12))
    rows = [tuple(draw(kind) for kind in kinds) for _ in range(count)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        intact = [i for i, row in enumerate(rows) if type(row) is tuple and len(row) == width]
        if not intact:
            break
        i = draw(st.sampled_from(intact))
        column = draw(st.integers(min_value=0, max_value=width - 1))
        row = list(rows[i])
        spoil = draw(st.sampled_from(["odd", "short", "long", "nested", "other"]))
        if spoil == "odd":
            row[column] = draw(_ODD_CELLS)
        elif spoil == "short":
            row.pop()
        elif spoil == "long":
            row.append(draw(kinds[column]))
        elif spoil == "nested":
            row[column] = (row[column],)
        rows[i] = draw(_ODD_CELLS) if spoil == "other" else tuple(row)
    return rows


def _out_of_range(value):
    """The first int beyond 64 bits in ``value`` (depth first), or None."""
    if isinstance(value, int) and not isinstance(value, bool):
        return None if -(1 << 63) <= value < (1 << 63) else value
    if isinstance(value, (tuple, list)):
        for item in value:
            bad = _out_of_range(item)
            if bad is not None:
                return bad
    return None


class TestRowDifferential:
    """The row path is byte-for-byte, value-for-value the per-value codec."""

    @given(row_tables())
    @settings(max_examples=300, deadline=None)
    def test_rows_match_the_itemwise_codec(self, rows):
        bad = _out_of_range(rows)
        if bad is not None:
            for encoder in (encode, encode_many, lambda r: encode(tuple(r))):
                with pytest.raises(SerializationError, match=f"out of 64-bit range: {bad}$"):
                    encoder(rows)
            with pytest.raises(SerializationError, match=f"out of 64-bit range: {bad}$"):
                reference_encode(rows)
            return
        raw = encode(rows)
        assert raw == reference_encode(rows)
        assert encode(tuple(rows)) == reference_encode(tuple(rows))
        stream = encode_many(rows)
        assert stream == b"".join(map(reference_encode, rows))
        decoded, consumed = decode(raw)
        assert consumed == len(raw) and same(decoded, rows)
        assert same(decode_many(stream), rows)

    def test_out_of_range_int_in_a_row_run_names_the_value(self):
        rows = [(i, 2 * i) for i in range(3 * _ROW_MIN)]
        rows[_ROW_MIN + 1] = (5, -(1 << 63) - 1)
        for encoder in (encode, encode_many):
            with pytest.raises(SerializationError, match=str(-(1 << 63) - 1)):
                encoder(rows)

    def test_row_run_stops_at_a_changed_column_type(self):
        rows = [(1, 2.0)] * _ROW_MIN + [(1, 2)] * _ROW_MIN + [(1.0, 2)] * _ROW_MIN
        assert encode_many(rows) == b"".join(map(reference_encode, rows))
        decoded = decode_many(encode_many(rows))
        assert same(decoded, rows)


class TestFuzzCorruption:
    """Corrupt or truncated input must raise SerializationError, never
    escape with a low-level exception or hang."""

    @given(_values, st.data())
    @settings(max_examples=150)
    def test_truncation_never_escapes(self, value, data):
        raw = encode(value)
        if len(raw) < 2:
            return
        cut = data.draw(st.integers(min_value=1, max_value=len(raw) - 1))
        try:
            decoded, consumed = decode(raw[:cut])
            # A prefix can be a valid shorter encoding; it must still have
            # consumed only what it was given.
            assert consumed <= cut
        except SerializationError:
            pass

    @given(_values, st.data())
    @settings(max_examples=150)
    def test_byte_flips_never_escape(self, value, data):
        raw = bytearray(encode(value))
        pos = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        raw[pos] ^= data.draw(st.integers(min_value=1, max_value=255))
        try:
            decode(bytes(raw))
        except SerializationError:
            pass

    @given(st.lists(_values, max_size=6), st.data())
    @settings(max_examples=150)
    def test_stream_corruption_never_escapes(self, values, data):
        raw = bytearray(encode_many(values))
        if not raw:
            return
        if data.draw(st.booleans()):
            raw = raw[: data.draw(st.integers(min_value=0, max_value=len(raw) - 1))]
        else:
            pos = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
            raw[pos] ^= data.draw(st.integers(min_value=1, max_value=255))
        try:
            decode_many(bytes(raw))
        except SerializationError:
            pass


def _row_stream_rows(count):
    """``(key, offset, length, batch)`` rows: i64 edges first, then a spread."""
    keys = [-(1 << 63), (1 << 63) - 1, -1, 0] + [k * 7919 - 300_000 for k in range(count)]
    return [(key, 37 * i, 23 + i % 211, i % 3) for i, key in enumerate(keys[:count])]


#: An ``mrbg.idx``-shaped stream (header, then rows) and an
#: ``OP_COMPACT_COMMIT``-shaped payload, both long enough for row runs.
_INDEX_STREAM = encode_many(
    [{"num_batches": 3, "count": 3 * _ROW_MIN}] + _row_stream_rows(3 * _ROW_MIN)
)
_COMMIT_PAYLOAD = encode(
    (6, [row[:3] for row in _row_stream_rows(3 * _ROW_MIN)], 4096)
)


def _outcome(decoder, raw, rows=True):
    """``decoder(raw)``, or the ``SerializationError`` it raised.

    With ``rows=False`` the row path is switched off, so ``decoder`` runs
    the per-value codec alone.
    """
    with mock.patch.object(
        serialization, "unpack_rows", serialization.unpack_rows if rows else _no_rows
    ):
        try:
            return decoder(raw)
        except SerializationError as exc:
            return exc


def _no_rows(*args, **kwargs):
    return b"", ()


def _has_dict(value) -> bool:
    if isinstance(value, dict):
        return True
    return isinstance(value, (tuple, list)) and any(map(_has_dict, value))


class TestRowCorruption:
    """Flipped or cut bytes inside row runs decode as the per-value codec does.

    That is: a ``SerializationError`` (never a ``struct.error`` or
    ``IndexError``) exactly when the per-value path raises one, else the
    same values — which re-encode to exactly the bytes consumed, unless
    the corrupt bytes happen to spell a dict with a repeated key.
    """

    @given(st.sampled_from([_INDEX_STREAM, _COMMIT_PAYLOAD]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_flipped_byte(self, raw, data):
        corrupt = bytearray(raw)
        pos = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        corrupt[pos] ^= data.draw(st.integers(min_value=1, max_value=255))
        self._check(bytes(corrupt))

    @given(st.sampled_from([_INDEX_STREAM, _COMMIT_PAYLOAD]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_truncated(self, raw, data):
        self._check(raw[: data.draw(st.integers(min_value=0, max_value=len(raw) - 1))])

    @staticmethod
    def _check(raw):
        values = _outcome(decode_many, raw)
        expected = _outcome(decode_many, raw, rows=False)
        if isinstance(expected, SerializationError):
            assert isinstance(values, SerializationError)
            assert str(values) == str(expected)
        else:
            assert same(values, expected)
            if not _has_dict(values):
                assert b"".join(map(reference_encode, values)) == raw
        if not raw:
            return
        result = _outcome(decode, raw)
        expected = _outcome(decode, raw, rows=False)
        if isinstance(expected, SerializationError):
            assert isinstance(result, SerializationError)
            assert str(result) == str(expected)
        else:
            value, consumed = result
            assert consumed == expected[1] and same(value, expected[0])
            if not _has_dict(value):
                assert reference_encode(value) == raw[:consumed]


class TestGoldenEncodings:
    """The rewritten codec must produce byte-identical output to the
    pre-overhaul format (golden hex captured from the old encoder)."""

    @pytest.fixture(scope="class")
    def golden(self):
        import json, os
        path = os.path.join(os.path.dirname(__file__), "golden", "encodings.json")
        with open(path) as fh:
            return json.load(fh)

    def test_values_byte_identical(self, golden):
        for item in golden["values"]:
            value = eval(item["repr"])  # reprs of plain literals we wrote
            assert encode(value).hex() == item["hex"], item["repr"]

    def test_values_decode_back(self, golden):
        for item in golden["values"]:
            value = eval(item["repr"])
            decoded, consumed = decode(bytes.fromhex(item["hex"]))
            assert decoded == value
            assert consumed == len(item["hex"]) // 2

    def test_records_byte_identical(self, golden):
        for item in golden["records"]:
            key, value = eval(item["repr"])
            assert encode_record(key, value).hex() == item["hex"]
            got_key, got_value, _ = decode_record(bytes.fromhex(item["hex"]))
            assert (got_key, got_value) == (key, value)
