"""Fast deterministic size estimation for simulated I/O accounting.

The cluster simulator charges disk and network time proportional to the
number of bytes a record *would* occupy in the binary format of
:mod:`repro.common.serialization`, without actually encoding every record
(that would dominate wall-clock time for large synthetic datasets).  The
estimates below match the real encoder's sizes exactly for the supported
types, so simulated byte counts agree with what the MRBG-Store measures
when it really encodes chunks.

This module runs once per emitted intermediate record on every engine's
hot path, so the common cases dispatch on the exact class (one dict
lookup) instead of walking an isinstance chain, and ASCII strings are
sized without materializing their UTF-8 encoding.  Subclasses fall
through to the original chain with identical results.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterable, Sequence, Tuple

_LEN_PREFIX = 4  # u32 length prefix on records
_TAG = 1
#: Bytes of a record besides its key and value: length prefix + pair header.
_RECORD_OVERHEAD = _LEN_PREFIX + _TAG + 4
_ITEM1 = itemgetter(1)


def _str_size(value: str) -> int:
    if value.isascii():
        return _TAG + 4 + len(value)
    return _TAG + 4 + len(value.encode("utf-8"))


def _seq_size(value) -> int:
    total = _TAG + 4
    sizes = _SIZE_DISPATCH
    for item in value:
        handler = sizes.get(item.__class__)
        total += handler(item) if handler is not None else _value_size_slow(item)
    return total


def _dict_size(value: dict) -> int:
    total = _TAG + 4
    for k, v in value.items():
        total += value_size(k) + value_size(v)
    return total


_SIZE_DISPATCH = {
    type(None): lambda value: _TAG,
    bool: lambda value: _TAG,
    int: lambda value: _TAG + 8,
    float: lambda value: _TAG + 8,
    str: _str_size,
    bytes: lambda value: _TAG + 4 + len(value),
    tuple: _seq_size,
    list: _seq_size,
    dict: _dict_size,
}

#: Constant-size scalar classes, pre-resolved for :func:`record_size`.
_SCALAR_SIZES = {type(None): _TAG, bool: _TAG, int: _TAG + 8, float: _TAG + 8}


def value_size(value: Any) -> int:
    """Exact encoded size in bytes of ``value`` under the binary format."""
    handler = _SIZE_DISPATCH.get(value.__class__)
    if handler is not None:
        return handler(value)
    return _value_size_slow(value)


def _value_size_slow(value: Any) -> int:
    if value is None or value is True or value is False:
        return _TAG
    if isinstance(value, bool):  # numpy bools etc. fall through to here
        return _TAG
    if isinstance(value, int):
        return _TAG + 8
    if isinstance(value, float):
        return _TAG + 8
    if isinstance(value, str):
        return _str_size(value)
    if isinstance(value, bytes):
        return _TAG + 4 + len(value)
    if isinstance(value, (tuple, list)):
        return _TAG + 4 + sum(value_size(item) for item in value)
    if isinstance(value, dict):
        return (
            _TAG
            + 4
            + sum(value_size(k) + value_size(v) for k, v in value.items())
        )
    # Unknown types are charged a flat conservative footprint rather than
    # failing: the simulator may see user-defined values that are never
    # persisted for real.
    return 64


def record_size(key: Any, value: Any) -> int:
    """Encoded size of a ``(key, value)`` record (length prefix included)."""
    sizes = _SCALAR_SIZES
    key_size = sizes.get(key.__class__)
    if key_size is None:
        key_size = value_size(key)
    val_size = sizes.get(value.__class__)
    if val_size is None:
        val_size = value_size(value)
    return _RECORD_OVERHEAD + key_size + val_size


def records_size(pairs: Iterable[Tuple[Any, Any]]) -> int:
    """Total encoded size of a stream of ``(key, value)`` records."""
    return sum(record_size(key, value) for key, value in pairs)


def values_size(values: Sequence) -> int:
    """Total :func:`value_size` of ``values``.

    One multiplication when a C-level type scan finds a single
    constant-size scalar class (the ``(word, 1)`` shape), else a sum.
    """
    kinds = set(map(type, values))
    if len(kinds) == 1:
        scalar = _SCALAR_SIZES.get(kinds.pop())
        if scalar is not None:
            return scalar * len(values)
    return sum(map(value_size, values))


def columns_size(keys: Sequence, values: Sequence) -> int:
    """:func:`records_size` of ``zip(keys, values)``, column by column."""
    return len(keys) * _RECORD_OVERHEAD + values_size(keys) + values_size(values)


def grouped_records_size(
    groups: Iterable[Tuple[Any, Sequence[Tuple[Any, Any]]]],
) -> int:
    """:func:`records_size` of key-grouped records, sizing each key once.

    ``groups`` yields ``(key, records)`` where every record of a group
    carries that group's key; the total equals ``records_size`` over the
    concatenated records.
    """
    total = 0
    values: list = []
    for key, records in groups:
        total += len(records) * (_RECORD_OVERHEAD + value_size(key))
        values.extend(map(_ITEM1, records))
    return total + values_size(values)
