"""Stable hashing used for partitioning and Map-instance identity.

Python's builtin ``hash`` is randomized per process for strings, which
would make partition assignment (and therefore every simulated byte
count) nondeterministic across runs.  All partitioning in this library
goes through :func:`stable_hash`, and Map-instance identity (the paper's
globally unique ``MK``, §3.2) through :func:`map_key`.

The implementation is hot — it runs once per emitted intermediate record —
so it uses C-speed primitives: splitmix64 arithmetic for ints/floats and
``zlib.crc32`` for strings/bytes, combined recursively for tuples.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Dict

_MASK64 = 0xFFFFFFFFFFFFFFFF
_F64 = struct.Struct("<d")


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    # Mask to 63 bits so hashes fit the signed-int64 binary encoding.
    return (x ^ (x >> 31)) & 0x7FFFFFFFFFFFFFFF


def _hash_int(key: int) -> int:
    # _splitmix64(key & _MASK64), inlined: this is the hottest branch.
    x = ((key & _MASK64) + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & 0x7FFFFFFFFFFFFFFF


def _hash_str(key: str) -> int:
    x = (zlib.crc32(key.encode("utf-8")) + 0x517CC1B7 + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & 0x7FFFFFFFFFFFFFFF


def _hash_float(key: float) -> int:
    return _splitmix64(int.from_bytes(_F64.pack(key), "little") ^ 0xF10A7)


def _hash_seq(key) -> int:
    acc = 0x345678 + len(key)
    for item in key:
        acc = _splitmix64(acc ^ stable_hash(item))
    return acc


_HASH_DISPATCH = {
    int: _hash_int,
    str: _hash_str,
    float: _hash_float,
    tuple: _hash_seq,
    list: _hash_seq,
    bool: lambda key: _splitmix64(0x9B00 + int(key)),
    bytes: lambda key: _splitmix64(zlib.crc32(key) + 0xB17E5),
    type(None): lambda key: _splitmix64(0xA0),
}


def stable_hash(key: Any) -> int:
    """Deterministic 64-bit hash of a MapReduce key.

    Supports the key types the library admits: ``None``, bools, ints,
    floats, strings, bytes, and (nested) tuples/lists of those.  The
    exact-class dispatch table short-circuits the common cases (this runs
    once per emitted record); subclasses take the isinstance chain below
    and hash identically.

    Raises:
        TypeError: for unsupported key types.
    """
    handler = _HASH_DISPATCH.get(key.__class__)
    if handler is not None:
        return handler(key)
    if isinstance(key, bool):
        return _splitmix64(0x9B00 + int(key))
    if isinstance(key, int):
        return _splitmix64(key & _MASK64)
    if isinstance(key, str):
        return _hash_str(key)
    if isinstance(key, float):
        return _hash_float(key)
    if isinstance(key, (tuple, list)):
        return _hash_seq(key)
    if isinstance(key, bytes):
        return _splitmix64(zlib.crc32(key) + 0xB17E5)
    if key is None:
        return _splitmix64(0xA0)
    raise TypeError(f"unsupported key type for stable_hash: {type(key).__name__}")


def stable_hash_bytes(data: bytes) -> int:
    """64-bit stable hash of raw bytes."""
    return _splitmix64(zlib.crc32(data) + 0xB17E5)


#: Entries the placement memo may hold; it is cleared when it fills.
PLACEMENT_MEMO_CAP = 1 << 16

#: ``key -> stable_hash(key)`` for keys of exact class ``int`` or ``str``.
_placement_memo: Dict[Any, int] = {}


def partition_for(key: Any, num_partitions: int) -> int:
    """The one placement function: ``stable_hash(key) mod n``.

    Map-output partitions, state partitions, structure partitions and
    store shards all come from here.  Iterative jobs place the same keys
    every sweep, so the hash of an exact ``int`` or ``str`` key is kept in
    a per-process memo; ``1 == 1.0 == True`` share a dict slot but not a
    hash, so every other class (``bool``, ``float``, tuples, subclasses)
    is hashed on each call.  Concurrent callers can at worst recompute.
    """
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    cls = key.__class__
    if cls is int or cls is str:
        hashed = _placement_memo.get(key)
        if hashed is None:
            if len(_placement_memo) >= PLACEMENT_MEMO_CAP:
                _placement_memo.clear()
            hashed = _placement_memo[key] = stable_hash(key)
        return hashed % num_partitions
    return stable_hash(key) % num_partitions


def map_key(k1: Any, v1: Any, dup_index: int = 0) -> int:
    """Globally unique Map key ``MK`` for a Map function call instance.

    The paper (§3.2) assigns each Map instance a globally unique ``MK``.
    Incremental deletions must re-derive the *same* MK from the old
    ``(K1, V1)`` carried in the delta record, so MK is a pure function of
    the record content (plus a duplicate-occurrence index for
    byte-identical records; fine-grain incremental jobs assume records
    are unique per ``(K1, V1)``, which holds for adjacency-list inputs).
    """
    return _splitmix64(stable_hash(k1) ^ stable_hash_value(v1) ^ (dup_index * 0x2545F4914F6CDD1D))


def stable_hash_value(value: Any) -> int:
    """Stable hash for values (same algorithm; separate name for intent)."""
    return stable_hash(value)
