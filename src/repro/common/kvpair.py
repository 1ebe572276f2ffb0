"""Key-value pair model shared by every engine in the library.

MapReduce computations in this reproduction operate on plain Python
``(key, value)`` tuples.  Keys must be *orderable* across the heterogeneous
types that real workloads mix (ints, strings, tuples of those), because the
shuffle phase sorts by key exactly like Hadoop sorts by serialized key
bytes.  :func:`sort_key` provides that total order.

Delta inputs (paper §3.3) are streams of :class:`DeltaRecord`; an update is
represented as a deletion of the old record followed by an insertion of the
new one, exactly as the paper prescribes.
"""

from __future__ import annotations

import enum
import operator as _operator
from collections import defaultdict
from itertools import chain
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple


class Op(enum.Enum):
    """Delta operation marker: ``+`` for insert, ``-`` for delete."""

    INSERT = "+"
    DELETE = "-"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class DeltaRecord(NamedTuple):
    """One record of a delta input file.

    Attributes:
        key: the Map input key ``K1``.
        value: the Map input value ``V1`` (for deletions, the *old* value,
            so the engine can re-derive the MRBGraph edges to remove).
        op: :data:`Op.INSERT` or :data:`Op.DELETE`.
    """

    key: Any
    value: Any
    op: Op


def insert(key: Any, value: Any) -> DeltaRecord:
    """Build an insertion delta record (``+`` in the paper's notation)."""
    return DeltaRecord(key, value, Op.INSERT)


def delete(key: Any, value: Any) -> DeltaRecord:
    """Build a deletion delta record (``-`` in the paper's notation)."""
    return DeltaRecord(key, value, Op.DELETE)


def update(key: Any, old_value: Any, new_value: Any) -> Tuple[DeltaRecord, DeltaRecord]:
    """Represent an update as a deletion followed by an insertion (§3.1)."""
    return delete(key, old_value), insert(key, new_value)


# Type ranks give a total order across the key types workloads actually mix.
_RANK_NONE = 0
_RANK_BOOL = 1
_RANK_NUM = 2
_RANK_STR = 3
_RANK_BYTES = 4
_RANK_TUPLE = 5


def sort_key(key: Any) -> Tuple:
    """Return a tuple that totally orders heterogeneous MapReduce keys.

    Numbers order among themselves, strings among themselves, and tuples
    recursively; distinct types order by a fixed type rank.  This mirrors
    Hadoop, where keys are ordered by their serialized byte representation.

    The exact-type dispatch table below short-circuits the common cases
    (this function runs once per record on every shuffle path); subclasses
    fall through to the isinstance chain with identical results.

    Raises:
        TypeError: for key types the library does not support.
    """
    handler = _SORT_KEY_DISPATCH.get(key.__class__)
    if handler is not None:
        return handler(key)
    if key is None:
        return (_RANK_NONE,)
    if isinstance(key, bool):
        return (_RANK_BOOL, key)
    if isinstance(key, (int, float)):
        return (_RANK_NUM, key)
    if isinstance(key, str):
        return (_RANK_STR, key)
    if isinstance(key, bytes):
        return (_RANK_BYTES, key)
    if isinstance(key, tuple):
        return (_RANK_TUPLE, tuple(sort_key(part) for part in key))
    raise TypeError(f"unsupported MapReduce key type: {type(key).__name__}")


_SORT_KEY_DISPATCH = {
    type(None): lambda key: (_RANK_NONE,),
    bool: lambda key: (_RANK_BOOL, key),
    int: lambda key: (_RANK_NUM, key),
    float: lambda key: (_RANK_NUM, key),
    str: lambda key: (_RANK_STR, key),
    bytes: lambda key: (_RANK_BYTES, key),
    tuple: lambda key: (_RANK_TUPLE, tuple(sort_key(part) for part in key)),
}


def record_sort_key(record: Sequence) -> Tuple:
    """:func:`sort_key` of a record's leading element (its shuffle key)."""
    return sort_key(record[0])


_ITEM0 = _operator.itemgetter(0)
_NUMERIC_KINDS = frozenset((int, float))
_INT_ONLY = frozenset((int,))
_STR_ONLY = frozenset((str,))
_BYTES_ONLY = frozenset((bytes,))
_TUPLE_ONLY = frozenset((tuple,))


def _natural_order_ok(keys: list, exact: bool = False) -> bool:
    """True when Python's native ordering of ``keys`` equals sort_key order.

    Holds for all-numeric (``bool`` excluded: it ranks below numbers in
    :func:`sort_key` but compares equal to 0/1 natively), all-``str`` and
    all-``bytes`` key sets, and for same-arity tuples whose columns
    recursively satisfy the same condition.  The scan is a handful of
    C-level ``set(map(type, …))`` passes — far cheaper than computing
    :func:`sort_key` per record.

    With ``exact`` the numeric case narrows to all-``int``, which proves
    more: ``==``-equal keys are then the same value of the same class, so
    nothing downstream (partitioner, :func:`sort_key`, codec, sizeof) can
    tell them apart.  ``float`` fails that (``-0.0 == 0.0`` encode
    differently, NaN equals nothing) and so do mixed kinds
    (``1 == 1.0 == True``).
    """
    kinds = set(map(type, keys))
    numeric = _INT_ONLY if exact else _NUMERIC_KINDS
    if kinds <= numeric or kinds == _STR_ONLY or kinds == _BYTES_ONLY:
        return True
    if kinds == _TUPLE_ONLY:
        lengths = set(map(len, keys))
        if len(lengths) != 1:
            return False
        return all(
            _natural_order_ok(list(map(_operator.itemgetter(j), keys)), exact)
            for j in range(lengths.pop())
        )
    return False


def keys_groupable(keys: list) -> bool:
    """True when a dict can group ``keys`` losslessly, natively ordered.

    Grouping through a dict merges ``==``-equal keys, which is only safe
    when equal keys are indistinguishable; the exact type scan of
    :func:`_natural_order_ok` proves that for a single class among
    ``int``/``str``/``bytes`` and same-arity tuples of those, whose native
    order is then also :func:`sort_key` order.
    """
    return _natural_order_ok(keys, exact=True)


def group_records(records: Sequence[Sequence]) -> Optional[Dict[Any, list]]:
    """Group records by key when a dict can do so losslessly, else ``None``.

    Returns ``key -> [records]`` with keys in first-arrival order and each
    key's records in arrival order.  Any key set :func:`keys_groupable`
    refuses returns ``None`` and the caller keeps working per record.
    """
    keys = list(map(_ITEM0, records))
    if not keys_groupable(keys):
        return None
    groups: Dict[Any, list] = defaultdict(list)
    for key, record in zip(keys, records):
        groups[key].append(record)
    return dict(groups)


def group_values(pairs: Sequence[Tuple[Any, Any]]) -> Optional[Dict[Any, list]]:
    """:func:`group_records` of ``(key, value)`` pairs, keeping only values.

    Returns ``key -> [values]`` (keys in first-arrival order, values in
    arrival order) in one pass, or ``None`` when :func:`keys_groupable`
    refuses the keys.
    """
    if not keys_groupable(list(map(_ITEM0, pairs))):
        return None
    groups: Dict[Any, list] = defaultdict(list)
    for key, value in pairs:
        groups[key].append(value)
    return dict(groups)


def sort_records(records: Iterable[Sequence]) -> list:
    """Key-sort records (``(key, ...)`` tuples), same order and stability
    as ``sorted(records, key=record_sort_key)``.

    This is the shuffle's sort: the key of each record is extracted once
    (decorate-sort-undecorate via the sort's key array, never once per
    comparison), and when a type scan proves native ordering matches
    :func:`sort_key` ordering the sort runs entirely on C-level
    comparisons with no per-record Python key call.
    """
    recs = records if type(records) is list else list(records)
    if len(recs) <= 1:
        return list(recs)
    if _natural_order_ok(list(map(_ITEM0, recs))):
        return sorted(recs, key=_ITEM0)
    return sorted(recs, key=record_sort_key)


def merge_sorted_runs(runs: Sequence[Sequence]) -> List:
    """Merge key-sorted record runs into one key-sorted list.

    Same order and stability as ``heapq.merge`` keyed by
    :func:`record_sort_key` (ties order by run then position): the runs
    are concatenated and stable-sorted once by :func:`sort_records`, whose
    timsort gallops over the pre-sorted runs in C instead of stepping a
    Python-level heap once per record.  (NaN keys have no order at all;
    with them the result is as unspecified as ``heapq.merge``'s was.)
    """
    merged = list(chain.from_iterable(runs))
    return merged if len(runs) <= 1 else sort_records(merged)


def sorted_by_key(pairs: Iterable[Tuple[Any, Any]]) -> list:
    """Sort ``(key, value)`` pairs by :func:`sort_key` of the key."""
    return sort_records(pairs)


def group_sorted(pairs: Iterable[Tuple[Any, Any]]) -> Iterator[Tuple[Any, list]]:
    """Group an already key-sorted pair stream into ``(key, [values])``.

    The input must be sorted by key (as the shuffle phase guarantees);
    groups are yielded in key order with values in arrival order.
    """
    current_key: Any = None
    current_values: list = []
    have_group = False
    for key, value in pairs:
        if have_group and key == current_key:
            current_values.append(value)
        else:
            if have_group:
                yield current_key, current_values
            current_key = key
            current_values = [value]
            have_group = True
    if have_group:
        yield current_key, current_values
