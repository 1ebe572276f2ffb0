"""MRBGraph edge model (§3.2).

A MRBGraph edge records that one Map function call instance (identified by
its globally unique Map key ``MK``) contributed an intermediate value
``V2`` to one Reduce instance (identified by ``K2``).  The preserved state
``M`` of a job is the set of ``(K2, MK, V2)`` triples; a *delta* MRBGraph
additionally marks each edge as inserted or deleted.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import lt
from typing import Any, Dict, Iterable, List, NamedTuple, Sequence, Tuple

from repro.common.kvpair import Op, sort_key
from repro.mrbgraph.chunk import ColumnarEdges, Edge  # Edge: re-exported from here


class DeltaEdge(NamedTuple):
    """A change to the MRBGraph: an inserted or deleted edge."""

    mk: int
    value: Any
    op: Op


def apply_delta(
    old_entries: Sequence[Edge],
    delta_entries: Iterable[DeltaEdge],
) -> ColumnarEdges:
    """Merge delta edges into a chunk's preserved edge list (§3.3).

    For each deletion the matching saved edge (by MK) is removed; for each
    insertion the engine "first checks duplicates, and inserts the new edge
    if no duplicate exists, or else updates the old edge" — ``(K2, MK)``
    uniquely identifies an edge.  The result is MK-sorted.

    The work follows the delta, not the chunk, wherever the chunk allows
    it.  ``old_entries`` as :func:`repro.mrbgraph.chunk.decode_chunk`
    returned them take one of two routes:

    - **replace-only** — the chunk is flat, MK-sorted and duplicate-free,
      and every delta edge inserts a value of the chunk's value type
      under an MK the chunk already holds: the new values are patched
      into a copy of the chunk's encoded bytes
      (:meth:`~repro.mrbgraph.chunk.ColumnarEdges.with_values`);
    - **structural** — anything else is merged through a dict built from
      the two columns; the result keeps the chunk's proven value type
      when everything the delta inserted has it too, so encoding it
      needs no type check of the old values.

    Any other sequence of ``(mk, value)`` pairs (an absent chunk's ``[]``,
    a hand-built ``List[Edge]``) is merged the same way with nothing
    proven.
    """
    delta = delta_entries if type(delta_entries) is list else list(delta_entries)
    value_type = None
    if type(old_entries) is ColumnarEdges:
        mks, values, value_type = old_entries.mks, old_entries.values, old_entries.value_type
        if (
            value_type is not None
            and old_entries.raw is not None
            and all(map(lt, mks, mks[1:]))
        ):
            updates: Dict[int, Any] = {}
            last = len(mks)
            for mk, value, op in delta:
                position = bisect_left(mks, mk)
                if (
                    op is Op.DELETE
                    or position == last
                    or mks[position] != mk
                    or type(value) is not value_type
                ):
                    break
                updates[position] = value
            else:
                patched = old_entries.with_values(updates)
                if patched is not None:
                    return patched
        merged = dict(zip(mks, values))
    else:
        merged = dict(old_entries)
    proven = value_type
    for mk, value, op in delta:
        if op is Op.DELETE:
            merged.pop(mk, None)
        else:
            merged[mk] = value
            if type(value) is not value_type or type(mk) is not int:
                proven = None
    new_mks = tuple(sorted(merged))
    return ColumnarEdges(new_mks, tuple(map(merged.__getitem__, new_mks)), None, proven)


def group_delta_by_key(
    delta_edges: Iterable[Tuple[Any, DeltaEdge]],
) -> List[Tuple[Any, List[DeltaEdge]]]:
    """Group ``(K2, DeltaEdge)`` pairs by K2, sorted by K2.

    The shuffle phase delivers delta edges sorted by K2 (§3.3); this helper
    reproduces that grouping for callers that build delta MRBGraphs
    directly.
    """
    grouped: Dict[Any, List[DeltaEdge]] = {}
    for k2, edge in delta_edges:
        grouped.setdefault(k2, []).append(edge)
    return sorted(grouped.items(), key=lambda item: sort_key(item[0]))
