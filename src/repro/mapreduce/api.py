"""User-facing MapReduce API, mirroring Hadoop's Mapper/Reducer classes.

A program supplies a :class:`Mapper` and a :class:`Reducer` (§2):

    ``map(K1, V1) -> [(K2, V2)]``
    ``reduce(K2, [V2]) -> [(K3, V3)]``

Instances are created per task, so ``setup`` can load per-task state (the
way the paper's APriori mapper loads the candidate-pair list).  Emission
goes through the :class:`Context` rather than return values, exactly like
Hadoop's ``Context.write``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.cluster.metrics import Counters
from repro.common.hashing import partition_for


class Context:
    """Per-task emission and counter sink passed to user functions."""

    def __init__(self) -> None:
        self._emitted: List[Tuple[Any, Any]] = []
        self.counters = Counters()

    def emit(self, key: Any, value: Any) -> None:
        """Emit one output ``(key, value)`` pair."""
        self._emitted.append((key, value))

    def take(self) -> List[Tuple[Any, Any]]:
        """Drain and return everything emitted since the last take."""
        emitted = self._emitted
        self._emitted = []
        return emitted

    @property
    def emitted(self) -> List[Tuple[Any, Any]]:
        """Everything currently buffered (without draining)."""
        return self._emitted


class Mapper:
    """Base Map function.  Subclass and override :meth:`map`.

    Attributes:
        cpu_weight: relative CPU cost of one ``map`` call versus the
            framework baseline; the cost model multiplies by this.
    """

    cpu_weight: float = 1.0

    def setup(self, ctx: Context) -> None:
        """Called once per task before any :meth:`map` call."""

    def map(self, key: Any, value: Any, ctx: Context) -> None:
        """Process one input record; emit via ``ctx.emit``."""
        raise NotImplementedError

    def cleanup(self, ctx: Context) -> None:
        """Called once per task after the last :meth:`map` call."""


class Reducer:
    """Base Reduce function.  Subclass and override :meth:`reduce`.

    Attributes:
        cpu_weight: relative CPU cost of processing one grouped value.
    """

    cpu_weight: float = 1.0

    def setup(self, ctx: Context) -> None:
        """Called once per task before any :meth:`reduce` call."""

    def reduce(self, key: Any, values: List[Any], ctx: Context) -> None:
        """Process one group; emit via ``ctx.emit``."""
        raise NotImplementedError

    def cleanup(self, ctx: Context) -> None:
        """Called once per task after the last :meth:`reduce` call."""


class IdentityMapper(Mapper):
    """Emits every input record unchanged (Hadoop's default mapper)."""

    def map(self, key: Any, value: Any, ctx: Context) -> None:
        """Emit the record unchanged."""
        ctx.emit(key, value)


class IdentityReducer(Reducer):
    """Emits every grouped value unchanged under its key."""

    def reduce(self, key: Any, values: List[Any], ctx: Context) -> None:
        """Emit every grouped value unchanged under its key."""
        for value in values:
            ctx.emit(key, value)


#: A partitioner maps ``(key, num_partitions)`` to a partition index in
#: ``range(num_partitions)``.  Like Hadoop's, it must be a pure function of
#: its two arguments: the map-side spill calls it once per distinct key, not
#: once per record, and fails with
#: :class:`repro.common.errors.PartitionOutOfRange` on any other index.
Partitioner = Callable[[Any, int], int]

default_partitioner: Partitioner = partition_for
