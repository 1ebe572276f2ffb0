"""Stream consumers: adapt the incremental engines to micro-batches.

A :class:`StreamConsumer` takes one micro-batch of delta records and
refreshes the computation, maintaining the preserved state (MRBG-Store,
converged state, accumulator outputs) *across* batches — the pipeline
equivalent of calling ``run_incremental`` once per recorded delta.

Two concrete consumers cover the library's two incremental engines:

- :class:`IterativeStreamConsumer` drives
  :meth:`repro.inciter.engine.I2MREngine.run_incremental` (§5) for
  iterative jobs (PageRank, SSSP, K-means, GIM-V);
- :class:`OneStepStreamConsumer` drives
  :meth:`repro.incremental.engine.IncrMREngine.run_incremental` (§3)
  for one-step jobs (WordCount, APriori), staging each batch as a DFS
  delta file exactly as a non-streaming caller would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.common.errors import StreamError
from repro.common.kvpair import DeltaRecord
from repro.dfs.filesystem import DistributedFS
from repro.incremental.api import delta_to_dfs_records
from repro.incremental.engine import IncrMREngine
from repro.incremental.state import PreservedJobState
from repro.inciter.engine import I2MREngine, I2MROptions
from repro.inciter.state import PreservedIterState
from repro.iterative.api import IterativeJob
from repro.mapreduce.job import JobConf
from repro.mrbgraph.sharding import ShardedMRBGStore


@dataclass
class BatchOutcome:
    """What one micro-batch cost and caused."""

    #: simulated engine seconds spent on the batch (incl. job startup).
    processing_s: float
    #: the §5.2 P∆ auto-off tripped during this batch.
    fell_back: bool = False
    #: incremental iterations the engine ran (one-step jobs report 1).
    iterations: int = 1
    #: store shards whose files the batch touched (sharded stores only).
    shards_touched: int = 0
    #: map tasks the engine actually scheduled for the batch — a batch
    #: whose delta nets to zero schedules none.
    map_tasks: int = 0


def _shard_activity(state: PreservedJobState) -> Dict[Tuple[int, int], Tuple[int, int]]:
    """Per-(partition, shard) I/O odometer of a preserved state's stores.

    Only sharded stores contribute; comparing two snapshots taken around
    a batch reveals which shards the batch's delta actually reached —
    the per-shard routing the streaming layer reports per batch.
    """
    activity: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for partition, store in state.stores.items():
        if not isinstance(store, ShardedMRBGStore):
            continue
        for sid, metrics in enumerate(store.shard_metrics()):
            activity[(partition, sid)] = (
                metrics.bytes_read + metrics.bytes_written,
                metrics.io_reads + metrics.io_writes,
            )
    return activity


def _shards_touched(
    before: Dict[Tuple[int, int], Tuple[int, int]],
    after: Dict[Tuple[int, int], Tuple[int, int]],
) -> int:
    """How many (partition, shard) odometers moved between snapshots."""
    return sum(
        1 for key, counters in after.items() if counters != before.get(key, (0, 0))
    )


class StreamConsumer:
    """Abstract micro-batch consumer."""

    def process_batch(self, records: List[DeltaRecord]) -> BatchOutcome:
        """Fold one micro-batch into the maintained computation."""
        raise NotImplementedError

    def state(self) -> Dict[Any, Any]:
        """The current algorithm state / output, as a plain dict."""
        raise NotImplementedError

    def close(self) -> None:
        """Release preserved on-disk state and engine pools."""


class IterativeStreamConsumer(StreamConsumer):
    """Feeds micro-batches through ``I2MREngine.run_incremental``.

    The preserved iterative state (converged state data + MRBG-Stores +
    partitioned structure) carries over from batch to batch; processing
    N batches leaves exactly the state N sequential one-shot
    ``run_incremental`` calls would.  When a batch trips the P∆ auto-off
    the stores are invalidated and later batches take the engine's full
    recomputation path — correct, just no longer fine-grain (reported
    per batch via :attr:`BatchOutcome.fell_back`).
    """

    def __init__(
        self,
        engine: I2MREngine,
        job: IterativeJob,
        prev: PreservedIterState,
        options: Optional[I2MROptions] = None,
        owns_state: bool = False,
    ) -> None:
        self.engine = engine
        self.job = job
        self.prev = prev
        self.options = options or I2MROptions()
        self._owns_state = owns_state

    @classmethod
    def from_initial(
        cls,
        cluster: Cluster,
        dfs: DistributedFS,
        job: IterativeJob,
        options: Optional[I2MROptions] = None,
        executor: Any = None,
        num_shards: Optional[int] = None,
    ) -> "IterativeStreamConsumer":
        """Run the initial converged job and wrap its preserved state.

        ``num_shards`` shards each partition's preserved MRBG-Store so
        batches apply their deltas shard-parallel (None = the
        ``REPRO_SHARDS`` default).
        """
        engine = I2MREngine(cluster, dfs, executor=executor, num_shards=num_shards)
        _, prev = engine.run_initial(job)
        return cls(engine, job, prev, options, owns_state=True)

    def process_batch(self, records: List[DeltaRecord]) -> BatchOutcome:
        """Run one incremental iterative job over the micro-batch."""
        records = list(records)
        before = _shard_activity(self.prev.stores)
        result = self.engine.run_incremental(
            self.job, records, self.prev, self.options
        )
        return BatchOutcome(
            processing_s=result.total_time,
            fell_back=result.fell_back,
            iterations=result.iterations,
            shards_touched=_shards_touched(
                before, _shard_activity(self.prev.stores)
            ),
            map_tasks=sum(
                getattr(stats, "scheduled_map_tasks", 0)
                for stats in result.per_iteration
            ),
        )

    def state(self) -> Dict[Any, Any]:
        """The current converged algorithm state."""
        return dict(self.prev.state)

    def close(self) -> None:
        """Release preserved state and engine pools (when owned)."""
        if self._owns_state:
            self.prev.cleanup()
            self.engine.close()


class OneStepStreamConsumer(StreamConsumer):
    """Feeds micro-batches through ``IncrMREngine.run_incremental``.

    Each batch is written to a fresh DFS staging file
    (``<staging_prefix>/batch-<n>``) in the ``(K1, (V1, op))`` delta
    format, then processed exactly like a hand-built one-shot delta.
    Accumulator-mode preserved state (§3.5) requires insert-only batches
    — the engine raises ``JobError`` otherwise.
    """

    def __init__(
        self,
        engine: IncrMREngine,
        jobconf: JobConf,
        state: PreservedJobState,
        staging_prefix: str = "/stream/delta",
        owns_state: bool = False,
    ) -> None:
        if not staging_prefix:
            raise StreamError("staging_prefix must be non-empty")
        self.engine = engine
        self.jobconf = jobconf
        self.preserved = state
        self.staging_prefix = staging_prefix.rstrip("/")
        self._owns_state = owns_state
        self._seq = 0

    @classmethod
    def from_initial(
        cls,
        cluster: Cluster,
        dfs: DistributedFS,
        jobconf: JobConf,
        accumulator: bool = False,
        staging_prefix: str = "/stream/delta",
        num_shards: Optional[int] = None,
    ) -> "OneStepStreamConsumer":
        """Run job A once and wrap its preserved fine-grain state."""
        engine = IncrMREngine(cluster, dfs)
        _, state = engine.run_initial(
            jobconf, accumulator=accumulator, num_shards=num_shards
        )
        return cls(engine, jobconf, state, staging_prefix, owns_state=True)

    def process_batch(self, records: List[DeltaRecord]) -> BatchOutcome:
        """Stage the micro-batch as a DFS delta file and process it."""
        path = f"{self.staging_prefix}/batch-{self._seq:06d}"
        self._seq += 1
        dfs = self.engine.dfs
        dfs.write(path, delta_to_dfs_records(records))
        before = _shard_activity(self.preserved)
        try:
            result = self.engine.run_incremental(self.jobconf, path, self.preserved)
        finally:
            # Staging files are per-batch scratch; a long-running stream
            # must not accumulate one DFS file per batch.
            dfs.delete(path)
            staging = f"{path}.plain"  # accumulator mode stages a second file
            if dfs.exists(staging):
                dfs.delete(staging)
        return BatchOutcome(
            processing_s=result.metrics.total_time,
            shards_touched=_shards_touched(before, _shard_activity(self.preserved)),
        )

    def state(self) -> Dict[Any, Any]:
        """The job's refreshed output as a key → value dict."""
        if self.preserved.accumulator:
            return dict(self.preserved.acc_outputs)
        flat: Dict[Any, Any] = {}
        for k3, v3 in self.preserved.result_records():
            flat[k3] = v3
        return flat

    def output_records(self) -> List[Tuple[Any, Any]]:
        """The job's refreshed full output, in deterministic key order."""
        return self.preserved.result_records()

    def close(self) -> None:
        """Release the preserved on-disk state (when owned)."""
        if self._owns_state:
            self.preserved.cleanup()
