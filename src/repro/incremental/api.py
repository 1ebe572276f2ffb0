"""User-facing additions for incremental one-step processing (Table 2).

- Delta inputs are :class:`repro.common.kvpair.DeltaRecord` streams, written
  to the DFS as ``(K1, (V1, '+'|'-'))`` records.
- :class:`AccumulatorReducer` declares the distributive accumulation
  operation of §3.5 (``accumulate(V2_old, V2_new) -> V2``); for such jobs
  the engine preserves only Reduce outputs instead of the MRBGraph.
"""

from __future__ import annotations

import operator
from typing import Any, Iterable, List, Tuple

from repro.common.errors import DeltaDecodeError
from repro.common.kvpair import DeltaRecord, Op
from repro.mapreduce.api import Context, Reducer


class AccumulatorReducer(Reducer):
    """A Reduce function that is a distributive accumulation ``⊕`` (§3.5).

    Subclasses implement :meth:`accumulate`; :meth:`reduce` is derived by
    left-folding.  The distributive property ``f(D ∪ ∆D) = f(D) ⊕ f(∆D)``
    lets the engine combine a preserved output with the delta's
    accumulation without preserving any MRBGraph state.
    """

    def accumulate(self, old: Any, new: Any) -> Any:
        """The accumulative operation ``⊕`` (must be associative)."""
        raise NotImplementedError

    def reduce(self, key: Any, values: List[Any], ctx: Context) -> None:
        """Fold the group with :meth:`accumulate` and emit the single result."""
        if not values:
            return
        acc = values[0]
        for value in values[1:]:
            acc = self.accumulate(acc, value)
        ctx.emit(key, acc)


class SumReducer(AccumulatorReducer):
    """Integer/float sum — WordCount's accumulator (§3.5)."""

    #: ``old + new``, as C-level :func:`operator.add`: a fold over a
    #: group's values then runs without a Python frame per value.
    accumulate = staticmethod(operator.add)


class MaxReducer(AccumulatorReducer):
    """Maximum accumulator (§3.5 lists max among the distributive ops)."""

    def accumulate(self, old: Any, new: Any) -> Any:
        """``max(old, new)``."""
        return old if old >= new else new


class MinReducer(AccumulatorReducer):
    """Minimum accumulator."""

    def accumulate(self, old: Any, new: Any) -> Any:
        """``min(old, new)``."""
        return old if old <= new else new


class AvgPartialReducer(AccumulatorReducer):
    """Average via partial (sum, count) pairs.

    §3.5: averages are not directly distributive, but carrying partial
    sums and counts makes them so.  Values are ``(sum, count)`` tuples;
    :meth:`finalize_average` recovers the mean.
    """

    def accumulate(self, old: Any, new: Any) -> Any:
        """Pairwise ``(sum, count)`` addition."""
        return (old[0] + new[0], old[1] + new[1])

    @staticmethod
    def finalize_average(partial: Tuple[float, int]) -> float:
        """Convert an accumulated ``(sum, count)`` into the average."""
        total, count = partial
        if count == 0:
            raise ValueError("cannot average an empty accumulation")
        return total / count


def delta_to_dfs_records(
    delta: Iterable[DeltaRecord],
) -> List[Tuple[Any, Tuple[Any, str]]]:
    """Encode a delta stream as DFS records ``(K1, (V1, '+'|'-'))``."""
    return [(rec.key, (rec.value, rec.op.value)) for rec in delta]


def dfs_records_to_delta(
    records: Iterable[Tuple[Any, Tuple[Any, str]]],
) -> List[DeltaRecord]:
    """Decode DFS delta records back into :class:`DeltaRecord` objects.

    Raises:
        DeltaDecodeError: when a record is not a ``(K1, (V1, op))`` pair
            or its op tag is neither ``'+'`` nor ``'-'``.
    """
    out: List[DeltaRecord] = []
    for item in records:
        try:
            key, pair = item
        except (TypeError, ValueError) as exc:
            raise DeltaDecodeError(
                item, "expected a (K1, (V1, op)) record"
            ) from exc
        # The inner pair must be a real sequence pair: a 2-char string
        # would "unpack" into (char, char) and fabricate a value.
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise DeltaDecodeError(item, "expected a (K1, (V1, op)) record")
        value, op = pair
        try:
            out.append(DeltaRecord(key, value, Op(op)))
        except ValueError as exc:
            raise DeltaDecodeError(
                item, f"op tag must be '+' or '-', got {op!r}"
            ) from exc
    return out
