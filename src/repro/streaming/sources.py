"""Delta sources: where a continuous pipeline's records come from.

A :class:`DeltaSource` yields :class:`ArrivedRecord` items — a delta
record plus its *simulated* arrival time — in non-decreasing arrival
order.  Three families are provided:

- :class:`ReplaySource` replays a recorded delta stream at a fixed
  arrival rate (the "log replay" shape);
- :class:`DFSTailSource` tails delta files in the simulated DFS (the
  shape a real deployment has: an ingest job appends delta files under
  a directory and the pipeline consumes them in order);
- :class:`SyntheticEvolvingSource` generates an evolving workload on
  the fly by repeatedly mutating a dataset with the library's seeded
  mutators (``mutate_web_graph``, ``mutate_weighted_graph``,
  ``mutate_points``, ``new_tweets``), each generation arriving as a
  burst — the recrawl/refresh shape of the paper's §8 experiments.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Iterable, Iterator, List, NamedTuple

from repro.common.errors import StreamSourceError
from repro.common.kvpair import DeltaRecord
from repro.dfs.filesystem import DistributedFS
from repro.incremental.api import dfs_records_to_delta


class ArrivedRecord(NamedTuple):
    """One delta record stamped with its simulated arrival time."""

    record: DeltaRecord
    arrival_s: float


class DeltaSource:
    """Abstract source of timestamped delta records.

    Subclasses implement :meth:`events`; iteration must yield records in
    non-decreasing ``arrival_s`` order (the pipeline relies on it for
    batching and backlog accounting) and must *resume*: a new
    ``events()`` pass continues after the last record a previous pass
    yielded, yielding nothing when no new data exists.  The pipeline
    re-enters ``events()`` after exhaustion, which is how a tailing
    source picks up data that appeared between two ``run`` calls.
    """

    def events(self) -> Iterator[ArrivedRecord]:
        """Yield :class:`ArrivedRecord` items in arrival order."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[ArrivedRecord]:
        return self.events()


class ReplaySource(DeltaSource):
    """Replay a recorded delta stream at a fixed arrival rate.

    Like every source, iteration *resumes*: a second ``events()`` pass
    starts after the last record the previous pass yielded (and yields
    nothing once the recording is exhausted), so a pipeline that drains
    the source and asks again does not see duplicates.  ``extend``
    appends more records to the recording; they arrive on the same
    fixed-rate schedule and are picked up by the next pass.

    A record is released as it is yielded, so the source holds only the
    part of the recording still to come: a long-running pipeline fed
    through ``extend`` stays flat in memory.

    Args:
        records: the delta records, in stream order.
        rate: arrival rate in records per simulated second; record ``i``
            arrives at ``start_s + i / rate``.
        start_s: simulated time of the first arrival.
    """

    def __init__(
        self,
        records: Iterable[DeltaRecord],
        rate: float = 1.0,
        start_s: float = 0.0,
    ) -> None:
        if rate <= 0:
            raise StreamSourceError("replay rate must be positive")
        #: records not yet yielded, in stream order.
        self.pending: Deque[DeltaRecord] = deque(records)
        self.rate = rate
        self.start_s = start_s
        # stream index of ``pending[0]``: arrival times count every record
        # ever yielded, not the ones still held.
        self._next_index = 0

    def extend(self, records: Iterable[DeltaRecord]) -> None:
        """Append more records to the recording (arrive after the rest)."""
        self.pending.extend(records)

    def events(self) -> Iterator[ArrivedRecord]:
        """Yield the recorded records at the fixed rate, resuming."""
        gap = 1.0 / self.rate
        pending = self.pending
        while pending:
            i = self._next_index
            self._next_index += 1
            yield ArrivedRecord(pending.popleft(), self.start_s + i * gap)


class DFSTailSource(DeltaSource):
    """Tail delta files under a DFS path prefix, in path order.

    Files are the ``(K1, (V1, '+'|'-'))`` record files that
    :func:`repro.incremental.api.delta_to_dfs_records` produces.  Each
    file is one burst: all of its records arrive together, bursts spaced
    ``period_s`` apart (a crawler dropping one delta file per refresh).

    The source re-lists the prefix whenever its known files are
    exhausted, so files written *between* two ``run`` calls of the same
    pipeline are picked up by the next call — tail semantics.  Paths are
    consumed at most once.

    Raises:
        repro.common.errors.DeltaDecodeError: when a tailed file does
            not hold well-formed delta records.
    """

    def __init__(
        self,
        dfs: DistributedFS,
        prefix: str,
        period_s: float = 60.0,
        start_s: float = 0.0,
    ) -> None:
        if period_s <= 0:
            raise StreamSourceError("period_s must be positive")
        self.dfs = dfs
        self.prefix = prefix
        self.period_s = period_s
        self.start_s = start_s
        self._consumed: set = set()
        self._next_burst_s = start_s

    def pending_paths(self) -> List[str]:
        """Paths under the prefix not yet consumed, in tail order."""
        return [p for p in self.dfs.ls(self.prefix) if p not in self._consumed]

    def events(self) -> Iterator[ArrivedRecord]:
        """Yield one burst per new delta file under the prefix."""
        while True:
            fresh = self.pending_paths()
            if not fresh:
                return
            for path in fresh:
                burst_s = self._next_burst_s
                self._next_burst_s += self.period_s
                self._consumed.add(path)
                for rec in dfs_records_to_delta(self.dfs.read(path)):
                    yield ArrivedRecord(rec, burst_s)


class SyntheticEvolvingSource(DeltaSource):
    """Generate an evolving workload by repeatedly mutating a dataset.

    Args:
        dataset: the starting dataset (``WebGraph``, ``WeightedGraph``,
            ``PointsDataset``, ``TweetDataset``, ...).
        mutate: a seeded mutator ``mutate(dataset, fraction, seed=...)``
            returning a delta object exposing ``records`` and the
            mutated dataset (``new_graph`` or ``new_dataset``).
        fraction: fraction of the dataset changed per generation.
        generations: how many delta bursts to produce.
        period_s: simulated seconds between generation bursts.
        seed: base seed; generation ``g`` uses ``seed + g``.
        start_s: simulated time of the first burst.

    The mutated dataset is tracked across generations and exposed as
    :attr:`current_dataset`, so a test can recompute from scratch on the
    final dataset and compare against the pipeline's incremental state.
    """

    def __init__(
        self,
        dataset: Any,
        mutate: Callable[..., Any],
        fraction: float,
        generations: int,
        period_s: float = 60.0,
        seed: int = 0,
        start_s: float = 0.0,
    ) -> None:
        if generations < 0:
            raise StreamSourceError("generations must be non-negative")
        if period_s <= 0:
            raise StreamSourceError("period_s must be positive")
        self.current_dataset = dataset
        self.mutate = mutate
        self.fraction = fraction
        self.generations = generations
        self.period_s = period_s
        self.seed = seed
        self.start_s = start_s
        self._generation = 0

    @staticmethod
    def _new_dataset(delta: Any) -> Any:
        for attr in ("new_graph", "new_dataset"):
            if hasattr(delta, attr):
                return getattr(delta, attr)
        raise StreamSourceError(
            f"mutator returned {type(delta).__name__} with neither "
            "new_graph nor new_dataset"
        )

    def events(self) -> Iterator[ArrivedRecord]:
        """Yield each generation's mutation burst as it is generated."""
        while self._generation < self.generations:
            g = self._generation
            self._generation += 1
            delta = self.mutate(
                self.current_dataset, self.fraction, seed=self.seed + g
            )
            self.current_dataset = self._new_dataset(delta)
            burst_s = self.start_s + g * self.period_s
            for rec in delta.records:
                yield ArrivedRecord(rec, burst_s)


def evolving_web_graph_source(
    graph: Any,
    fraction: float = 0.05,
    generations: int = 3,
    period_s: float = 60.0,
    seed: int = 0,
) -> SyntheticEvolvingSource:
    """An evolving web crawl (wraps :func:`mutate_web_graph`)."""
    from repro.datasets.graphs import mutate_web_graph

    return SyntheticEvolvingSource(
        graph, mutate_web_graph, fraction, generations, period_s, seed
    )


def evolving_weighted_graph_source(
    graph: Any,
    fraction: float = 0.05,
    generations: int = 3,
    period_s: float = 60.0,
    seed: int = 0,
) -> SyntheticEvolvingSource:
    """An evolving weighted graph (wraps :func:`mutate_weighted_graph`)."""
    from repro.datasets.graphs import mutate_weighted_graph

    return SyntheticEvolvingSource(
        graph, mutate_weighted_graph, fraction, generations, period_s, seed
    )


def evolving_points_source(
    points: Any,
    fraction: float = 0.05,
    generations: int = 3,
    period_s: float = 60.0,
    seed: int = 0,
) -> SyntheticEvolvingSource:
    """An evolving point population (wraps :func:`mutate_points`)."""
    from repro.datasets.points import mutate_points

    return SyntheticEvolvingSource(
        points, mutate_points, fraction, generations, period_s, seed
    )


def evolving_text_source(
    tweets: Any,
    fraction: float = 0.05,
    generations: int = 3,
    period_s: float = 60.0,
    seed: int = 0,
) -> SyntheticEvolvingSource:
    """Newly collected text (wraps :func:`new_tweets`; insert-only, so
    it feeds accumulator one-step jobs like WordCount/APriori, §3.5)."""
    from repro.datasets.text import new_tweets

    return SyntheticEvolvingSource(
        tweets, new_tweets, fraction, generations, period_s, seed
    )
