"""Preserved state of one incremental-capable MapReduce job.

Holds the per-Reduce-task MRBG-Stores (fine-grain mode) or the preserved
Reduce outputs (accumulator mode, §3.5), plus the last full result so an
incremental run can refresh only the changed output records.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.costmodel import CostModel
from repro.common import config
from repro.common.kvpair import sort_records
from repro.mrbgraph.sharding import ShardedMRBGStore, StoreLike
from repro.mrbgraph.store import MRBGStore, StoreMetrics
from repro.mrbgraph.windows import MultiDynamicWindowPolicy, WindowPolicy

PolicyFactory = Callable[[], WindowPolicy]


class PreservedJobState:
    """Fine-grain (or accumulator) state preserved between jobs.

    With ``num_shards > 1`` (default: ``REPRO_SHARDS`` via
    :data:`repro.common.config.DEFAULT_NUM_SHARDS`) each reduce
    partition's store is a :class:`~repro.mrbgraph.sharding.ShardedMRBGStore`
    whose maintenance fans out on ``store_executor``; the engines use
    either store kind transparently.
    """

    def __init__(
        self,
        num_reducers: int,
        root_dir: Optional[str] = None,
        policy_factory: Optional[PolicyFactory] = None,
        cost_model: Optional[CostModel] = None,
        accumulator: bool = False,
        num_shards: Optional[int] = None,
        store_executor: Any = None,
        num_workers: Optional[int] = None,
        fault_hook: Any = None,
    ) -> None:
        self.num_reducers = num_reducers
        self.accumulator = accumulator
        self._owns_dir = root_dir is None
        self.root_dir = root_dir or tempfile.mkdtemp(prefix="i2mr-state-")
        os.makedirs(self.root_dir, exist_ok=True)
        self._policy_factory = policy_factory or MultiDynamicWindowPolicy
        self._cost_model = cost_model or CostModel()
        self.num_shards = (
            config.DEFAULT_NUM_SHARDS if num_shards is None else num_shards
        )
        if self.num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self._store_executor = store_executor
        #: simulated workers shard placement spreads over (the engines
        #: pass their cluster's size; None = DEFAULT_NUM_WORKERS).
        self._num_workers = num_workers
        #: crash hook handed to every store this state creates.
        self._fault_hook = fault_hook
        self._stores: Dict[int, StoreLike] = {}
        #: fine-grain mode: reduce-instance key -> that instance's outputs.
        self.outputs: Dict[Any, List[Tuple[Any, Any]]] = {}
        #: accumulator mode: output key -> accumulated value.
        self.acc_outputs: Dict[Any, Any] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    # stores                                                             #
    # ------------------------------------------------------------------ #

    def store_for(self, partition: int) -> StoreLike:
        """The MRBG-Store of reduce task ``partition`` (created lazily).

        A partition whose files were persisted by :meth:`close` is
        *reopened* (shard manifest / ``mrbg.idx`` reloaded) rather than
        recreated empty.
        """
        if partition not in self._stores:
            directory = os.path.join(self.root_dir, f"part-{partition:05d}")
            if os.path.exists(os.path.join(directory, "mrbg.shards")):
                self._stores[partition] = ShardedMRBGStore.open(
                    directory,
                    policy_factory=self._policy_factory,
                    cost_model=self._cost_model,
                    executor=self._store_executor,
                    num_workers=self._num_workers,
                    fault_hook=self._fault_hook,
                )
            elif self.num_shards > 1:
                self._stores[partition] = ShardedMRBGStore(
                    directory,
                    num_shards=self.num_shards,
                    policy_factory=self._policy_factory,
                    cost_model=self._cost_model,
                    executor=self._store_executor,
                    num_workers=self._num_workers,
                    fault_hook=self._fault_hook,
                )
            elif os.path.exists(os.path.join(directory, "mrbg.idx")) or os.path.exists(
                os.path.join(directory, "mrbg.wal")
            ):
                self._stores[partition] = MRBGStore.open(
                    directory,
                    policy=self._policy_factory(),
                    cost_model=self._cost_model,
                    fault_hook=self._fault_hook,
                )
            else:
                self._stores[partition] = MRBGStore(
                    directory,
                    policy=self._policy_factory(),
                    cost_model=self._cost_model,
                    fault_hook=self._fault_hook,
                )
        return self._stores[partition]

    @property
    def stores(self) -> Dict[int, StoreLike]:
        """All materialized stores, keyed by reduce partition."""
        return dict(self._stores)

    def store_metrics(self) -> StoreMetrics:
        """Aggregated store statistics across all partitions."""
        total = StoreMetrics()
        for store in self._stores.values():
            store.metrics.merged_into(total)
        return total

    def snapshot_store_metrics(self) -> Dict[int, StoreMetrics]:
        """Per-partition metric snapshots (for delta accounting)."""
        return {p: s.metrics.snapshot() for p, s in self._stores.items()}

    def store_metrics_since(self, snaps: Dict[int, StoreMetrics]) -> StoreMetrics:
        """Aggregate statistics accumulated since ``snaps`` was taken."""
        total = StoreMetrics()
        for p, store in self._stores.items():
            base = snaps.get(p)
            delta = store.metrics.since(base) if base else store.metrics.snapshot()
            delta.merged_into(total)
        return total

    def compact_all(self) -> None:
        """Offline reconstruction of every store (idle-time maintenance)."""
        for store in self._stores.values():
            store.compact()

    def maybe_compact_all(self) -> None:
        """Idle-time opportunity: compact only stores holding dead weight.

        Gated counterpart of :meth:`compact_all` — each store applies
        :meth:`~repro.mrbgraph.store.MRBGStore.maybe_compact`'s rule.
        """
        for store in self._stores.values():
            store.maybe_compact()

    def reset_stores(self) -> None:
        """Abandon every in-memory store object without flushing anything.

        The crash-simulation reset: after an injected (or real) crash
        killed stores mid-operation, this releases their file handles
        exactly as a dead process would; the next :meth:`store_for` of
        each partition reopens it from disk, running write-ahead-log
        recovery.
        """
        for store in self._stores.values():
            store.abandon()
        self._stores.clear()

    def checkpoint_bytes(self) -> int:
        """Bytes a full checkpoint of the preserved state would copy."""
        return sum(store.checkpoint_bytes() for store in self._stores.values())

    # ------------------------------------------------------------------ #
    # results                                                            #
    # ------------------------------------------------------------------ #

    def result_records(self) -> List[Tuple[Any, Any]]:
        """The job's full current output, in deterministic key order."""
        if self.accumulator:
            return sort_records(self.acc_outputs.items())
        records: List[Tuple[Any, Any]] = []
        for _, outputs in sort_records(self.outputs.items()):
            records.extend(outputs)
        return records

    # ------------------------------------------------------------------ #
    # lifecycle                                                          #
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Close stores; keeps on-disk files (reopen with ``store_for``).

        Stores killed by an injected crash are skipped — their on-disk
        state must stay exactly as the kill left it for recovery.
        """
        for store in self._stores.values():
            if getattr(store, "crashed", False):
                continue
            store.save_index()
            store.close()
        self._stores.clear()
        self._closed = True

    def cleanup(self) -> None:
        """Close and delete all on-disk state."""
        self.close()
        if self._owns_dir:
            shutil.rmtree(self.root_dir, ignore_errors=True)

    def __enter__(self) -> "PreservedJobState":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.cleanup()
