"""Sharded MRBG-Store: partitioned preserved state, parallel maintenance.

The paper's MRBG-Store (§3.4) is one monolithic append-only file per
Reduce task, so compaction, window reads and incremental merges all
serialize on a single index even when the host execution layer
(:mod:`repro.execution`) has idle workers.  This module splits one
logical store into ``N`` independent :class:`~repro.mrbgraph.store.MRBGStore`
shards — each with its own append buffer, ``mrbg.dat``/``mrbg.idx`` pair
and window cache — behind the same store interface, so the incremental
engines use a sharded store transparently:

- a :class:`ShardRouter` maps each ``K2`` to its shard deterministically
  (hash routing by default, optional range routing);
- delta merges, initial builds, offline compactions and index flushes
  fan out per shard through an execution backend — independent shards
  proceed concurrently on the ``thread``/``process`` backends while the
  ``serial`` backend keeps the reference semantics;
- per-shard :class:`~repro.mrbgraph.store.StoreMetrics` merge into one
  logical view, and each maintenance round is placed on the simulated
  cluster with shard-locality-aware scheduling
  (:func:`repro.cluster.scheduler.schedule_shard_stage`): a shard task
  prefers the worker owning the shard's files and pays a cross-shard
  network transfer (:meth:`repro.cluster.costmodel.CostModel.cross_shard_read_time`)
  anywhere else.

Byte-level equivalence is preserved shard by shard: every shard is a
plain ``MRBGStore`` writing the exact chunk format of
:mod:`repro.mrbgraph.chunk`, and a single-shard configuration produces a
data file byte-identical to an unsharded store fed the same operations.
"""

from __future__ import annotations

import bisect
import os
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.cluster.costmodel import CostModel
from repro.cluster.scheduler import (
    ScheduleResult,
    ShardPlacement,
    ShardTaskSpec,
    reschedule_failed_tasks,
    schedule_shard_stage,
)
from repro.common import config
from repro.common.errors import StoreClosedError, StoreError
from repro.common.hashing import partition_for
from repro.common.kvpair import sort_key
from repro.common.serialization import decode_many, encode_many
from repro.mrbgraph.chunk import ColumnarEdges
from repro.mrbgraph.compaction import CompactionSpec
from repro.mrbgraph.graph import DeltaEdge, Edge
from repro.mrbgraph.store import (
    FaultHook,
    MRBGStore,
    StoreMetrics,
    compact_data_file,
    encode_index_entries,
    require_distinct_keys,
)
from repro.mrbgraph.wal import OP_COMPACT_BEGIN, OP_COMPACT_COMMIT, atomic_write
from repro.mrbgraph.windows import ChunkLocation

_MANIFEST_FILE = "mrbg.shards"
_INDEX_FILE = "mrbg.idx"
_SHARD_DIR_FMT = "shard-%04d"

#: Callable producing a fresh window policy per shard.
PolicyFactory = Any


# ---------------------------------------------------------------------- #
# routers                                                                #
# ---------------------------------------------------------------------- #


class ShardRouter:
    """Deterministic ``K2 → shard`` mapping shared by writers and readers.

    A router is a pure function of the key: routing never depends on the
    current key population, so inserting or deleting chunks can never
    move other keys between shards (the stability property the
    hypothesis suite checks).
    """

    #: registry name persisted in the shard manifest.
    kind: str = "abstract"
    num_shards: int = 1

    def shard_for(self, key: Any) -> int:
        """Shard index in ``[0, num_shards)`` owning ``key``'s chunk."""
        raise NotImplementedError

    def spec(self) -> Dict[str, Any]:
        """Serializable description persisted in the shard manifest."""
        raise NotImplementedError


class HashShardRouter(ShardRouter):
    """The default router: ``stable_hash(key) % num_shards``.

    Routes through :func:`repro.common.hashing.partition_for`, the
    library's one deterministic placement function (never Python's
    randomized builtin hash), so placement is identical across processes
    and runs and equals the engines' partitioning.
    """

    kind = "hash"

    def __init__(self, num_shards: int) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self.num_shards = num_shards

    def shard_for(self, key: Any) -> int:
        """Deterministic ``stable_hash(key) % num_shards``."""
        return partition_for(key, self.num_shards)

    def spec(self) -> Dict[str, Any]:
        """Manifest description: kind + shard count."""
        return {"kind": self.kind, "num_shards": self.num_shards}


class RangeShardRouter(ShardRouter):
    """Range partitioning on the K2 sort order.

    ``boundaries`` are ``num_shards - 1`` split keys: a key routes to the
    first shard whose boundary is ≥ the key (lower-bound search on
    :func:`repro.common.kvpair.sort_key` order, so a boundary key routes
    to the shard it bounds) — shard *i* holds the keys in
    ``(boundaries[i-1], boundaries[i]]``.  Useful when queries scan
    contiguous K2 ranges and should touch one shard each.
    """

    kind = "range"

    def __init__(self, boundaries: Sequence[Any]) -> None:
        self.boundaries = list(boundaries)
        self._cuts = [sort_key(b) for b in self.boundaries]
        if self._cuts != sorted(self._cuts):
            raise ValueError("range boundaries must be sorted")
        self.num_shards = len(self.boundaries) + 1

    def shard_for(self, key: Any) -> int:
        """Lower-bound search of ``key`` among the sorted boundaries."""
        return bisect.bisect_left(self._cuts, sort_key(key))

    def spec(self) -> Dict[str, Any]:
        """Manifest description: kind + boundary keys."""
        return {"kind": self.kind, "boundaries": list(self.boundaries)}


def router_from_spec(spec: Dict[str, Any]) -> ShardRouter:
    """Rebuild a router from its persisted manifest description."""
    kind = spec.get("kind")
    if kind == HashShardRouter.kind:
        return HashShardRouter(spec["num_shards"])
    if kind == RangeShardRouter.kind:
        return RangeShardRouter(spec["boundaries"])
    raise StoreError(f"unknown shard router kind {kind!r}")


# ---------------------------------------------------------------------- #
# fan-out task functions                                                 #
# ---------------------------------------------------------------------- #
#
# Thread-level tasks close over live MRBGStore objects (never picklable:
# they hold open file handles), so they are dispatched with
# ``picklable=False`` — the process backend falls back to in-process
# execution while the thread backend runs shards genuinely concurrently.
# Compaction and index flushes instead ship *plain-data* payloads, so
# they parallelize on every backend including processes.


def _run_shard_build(pair: Tuple[MRBGStore, List[Tuple[Any, Sequence[Edge]]]]) -> None:
    """Build one shard's initial sorted batch (thread-level task)."""
    shard, chunks = pair
    shard.build(chunks)


def _run_shard_merge(
    pair: Tuple[MRBGStore, List[Tuple[Any, List[DeltaEdge]]]],
) -> List[Tuple[Any, ColumnarEdges]]:
    """Apply one shard's slice of a delta merge (thread-level task)."""
    shard, groups = pair
    return list(shard.merge_delta(groups))


@dataclass
class ShardCompactTask:
    """Plain-data payload of one shard compaction (picklable)."""

    shard_id: int
    data_path: str
    #: live ``(offset, length)`` placements in K2 order.
    locations: List[Tuple[int, int]]
    append_buffer_size: int
    #: leave the complete rewrite as ``<data_path>.compact`` instead of
    #: swapping it in — the WAL-protected coordinator journals the
    #: compaction commit record first, then performs the swap itself.
    leave_temp: bool = False


@dataclass
class ShardCompactResult:
    """What one shard compaction produced (picklable)."""

    shard_id: int
    #: new ``(offset, length)`` placements, aligned with the task order.
    locations: List[Tuple[int, int]]
    file_size: int


def run_shard_compact(task: ShardCompactTask) -> ShardCompactResult:
    """Stream-compact one shard's data file; pure function of the file."""
    locations = [
        ChunkLocation(offset, length, 0) for offset, length in task.locations
    ]
    new_locations, out_offset = compact_data_file(
        task.data_path,
        locations,
        task.append_buffer_size,
        replace=not task.leave_temp,
    )
    return ShardCompactResult(
        shard_id=task.shard_id,
        locations=[(loc.offset, loc.length) for loc in new_locations],
        file_size=out_offset,
    )


@dataclass
class ShardIndexFlushTask:
    """Plain-data payload of one shard index flush (picklable)."""

    shard_id: int
    index_path: str
    #: ``(key, offset, length, batch)`` rows in index insertion order.
    entries: List[Tuple[Any, int, int, int]]
    num_batches: int


def run_shard_index_flush(task: ShardIndexFlushTask) -> int:
    """Write one shard's ``mrbg.idx`` atomically; returns bytes written.

    Produces byte-identical files to
    :meth:`repro.mrbgraph.store.MRBGStore.save_index` (both go through
    :func:`repro.mrbgraph.store.encode_index_entries` and the same
    write-temp + fsync + rename swap of
    :func:`repro.mrbgraph.wal.atomic_write`).
    """
    raw = encode_index_entries(task.entries, task.num_batches)
    atomic_write(task.index_path, raw)
    return len(raw)


# ---------------------------------------------------------------------- #
# the sharded store                                                      #
# ---------------------------------------------------------------------- #


class ShardedMRBGStore:
    """N independent ``MRBGStore`` shards behind the one-store interface.

    Drop-in compatible with :class:`~repro.mrbgraph.store.MRBGStore` for
    everything the engines use — ``build`` / ``begin_merge`` /
    ``get_chunk`` / ``put_chunk`` / ``delete_chunk`` / ``end_merge`` /
    ``merge_delta`` / ``compact`` / ``save_index`` / ``close`` plus the
    introspection surface — so :class:`repro.incremental.state.PreservedJobState`
    hands one to the engines transparently when ``num_shards > 1``.

    Shard-local work fans out through ``executor`` (an
    :data:`repro.execution.ExecutorSpec`); outputs are merged in shard
    order, so results, metrics and on-disk bytes are identical whichever
    backend ran the batch.  Every maintenance round is also *placed* on
    the simulated cluster via shard-locality-aware scheduling; the most
    recent placement is exposed as :attr:`last_schedule`.
    """

    def __init__(
        self,
        directory: str,
        num_shards: Optional[int] = None,
        router: Optional[ShardRouter] = None,
        policy_factory: Optional[PolicyFactory] = None,
        cost_model: Optional[CostModel] = None,
        append_buffer_size: int = config.DEFAULT_APPEND_BUFFER_SIZE,
        prefetch_lookahead: int = config.DEFAULT_PREFETCH_LOOKAHEAD,
        executor: Any = None,
        num_workers: Optional[int] = None,
        wal_enabled: Optional[bool] = None,
        compaction: CompactionSpec = None,
        fault_hook: Optional[FaultHook] = None,
        _reopen: bool = False,
    ) -> None:
        if router is None:
            if num_shards is None:
                num_shards = config.DEFAULT_NUM_SHARDS
            router = HashShardRouter(num_shards)
        elif num_shards is not None and num_shards != router.num_shards:
            raise StoreError(
                f"num_shards={num_shards} contradicts the router's "
                f"{router.num_shards}"
            )
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.router = router
        self.cost_model = cost_model or CostModel()
        self.policy_factory = policy_factory
        self.append_buffer_size = append_buffer_size
        self.prefetch_lookahead = prefetch_lookahead
        self.placement = ShardPlacement(
            num_shards=router.num_shards,
            num_workers=num_workers or config.DEFAULT_NUM_WORKERS,
        )
        #: placement of the most recent fanned-out maintenance round.
        self.last_schedule: Optional[ScheduleResult] = None
        #: placement of the most recent round's *re-executed* failed
        #: tasks (owner-locality-aware, backoff included), or ``None``
        #: when the round ran fault-free.  Kept separate from
        #: :attr:`last_schedule` so simulated stage times never change
        #: under injected faults.
        self.last_retry_schedule: Optional[ScheduleResult] = None

        self._executor_spec = executor
        self._executor = None
        self._owns_executor = False
        self._in_session = False
        self._closed = False

        self._shards: List[MRBGStore] = []
        for sid in range(router.num_shards):
            shard_dir = os.path.join(directory, _SHARD_DIR_FMT % sid)
            policy = policy_factory() if policy_factory else None
            if _reopen:
                shard = MRBGStore.open(
                    shard_dir,
                    policy=policy,
                    cost_model=self.cost_model,
                    wal_enabled=wal_enabled,
                    compaction=compaction,
                    fault_hook=fault_hook,
                    shard_id=sid,
                )
            else:
                shard = MRBGStore(
                    shard_dir,
                    policy=policy,
                    cost_model=self.cost_model,
                    append_buffer_size=append_buffer_size,
                    prefetch_lookahead=prefetch_lookahead,
                    wal_enabled=wal_enabled,
                    compaction=compaction,
                    fault_hook=fault_hook,
                    shard_id=sid,
                )
            self._shards.append(shard)
        self._write_manifest()

    # ------------------------------------------------------------------ #
    # lifecycle                                                          #
    # ------------------------------------------------------------------ #

    @classmethod
    def open(
        cls,
        directory: str,
        policy_factory: Optional[PolicyFactory] = None,
        cost_model: Optional[CostModel] = None,
        executor: Any = None,
        num_workers: Optional[int] = None,
        wal_enabled: Optional[bool] = None,
        compaction: CompactionSpec = None,
        fault_hook: Optional[FaultHook] = None,
    ) -> "ShardedMRBGStore":
        """Reopen a sharded store from its manifest and shard indexes.

        Every shard reopens through :meth:`MRBGStore.open`, so per-shard
        write-ahead-log recovery runs shard by shard — a crash that
        killed one shard mid-operation never affects its siblings.
        """
        manifest_path = os.path.join(directory, _MANIFEST_FILE)
        if not os.path.exists(manifest_path):
            raise StoreError(f"no shard manifest under {directory!r}")
        with open(manifest_path, "rb") as fh:
            manifest = decode_many(fh.read())[0]
        return cls(
            directory,
            router=router_from_spec(manifest["router"]),
            policy_factory=policy_factory,
            cost_model=cost_model,
            executor=executor,
            num_workers=num_workers,
            wal_enabled=wal_enabled,
            compaction=compaction,
            fault_hook=fault_hook,
            _reopen=True,
        )

    def _write_manifest(self) -> None:
        manifest_path = os.path.join(self.directory, _MANIFEST_FILE)
        if os.path.exists(manifest_path):
            return
        raw = encode_many([{"router": self.router.spec()}])
        atomic_write(manifest_path, raw)

    def close(self) -> None:
        """Close every shard and any backend this store created."""
        if self._closed:
            return
        for shard in self._shards:
            shard.close()
        if self._owns_executor and self._executor is not None:
            self._executor.close()
            self._executor = None
        self._closed = True

    def abandon(self) -> None:
        """Kill every shard without flushing (a simulated whole-node kill).

        See :meth:`MRBGStore.abandon`; per-shard recovery runs on the
        next :meth:`open` of the directory.
        """
        if self._closed:
            return
        for shard in self._shards:
            shard.abandon()
        if self._owns_executor and self._executor is not None:
            self._executor.close()
            self._executor = None
        self._closed = True

    @property
    def crashed(self) -> bool:
        """Whether any shard was killed by an injected crash."""
        return any(shard.crashed for shard in self._shards)

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("store is closed")

    def _backend(self):
        from repro.execution import ExecutionBackend, resolve_executor

        if self._executor is None:
            spec = self._executor_spec
            if isinstance(spec, ExecutionBackend):
                self._executor = spec
            else:
                self._executor = resolve_executor(spec)
                self._owns_executor = True
        return self._executor

    # ------------------------------------------------------------------ #
    # introspection                                                      #
    # ------------------------------------------------------------------ #

    @property
    def num_shards(self) -> int:
        """Number of independent shards behind this store."""
        return self.router.num_shards

    @property
    def shards(self) -> Tuple[MRBGStore, ...]:
        """The underlying shard stores, in shard-id order (read-only)."""
        return tuple(self._shards)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, key: Any) -> bool:
        return key in self._shards[self.router.shard_for(key)]

    def keys(self) -> List[Any]:
        """Live chunk keys across all shards, in K2-sorted order."""
        merged: List[Any] = []
        for shard in self._shards:
            merged.extend(shard._index)
        return sorted(merged, key=sort_key)

    @property
    def file_size(self) -> int:
        """Total flushed bytes across every shard data file."""
        return sum(shard.file_size for shard in self._shards)

    @property
    def num_batches(self) -> int:
        """Deepest sorted-batch stack across the shards."""
        return max((shard.num_batches for shard in self._shards), default=0)

    def live_bytes(self) -> int:
        """Bytes occupied by the latest version of every live chunk."""
        return sum(shard.live_bytes() for shard in self._shards)

    def checkpoint_bytes(self) -> int:
        """Bytes a per-iteration checkpoint of this store would copy."""
        return sum(shard.checkpoint_bytes() for shard in self._shards)

    @property
    def metrics(self) -> StoreMetrics:
        """Per-shard statistics merged into one logical view.

        Computed fresh on every access — take a ``snapshot()`` (or use
        :meth:`shard_metrics`) for delta accounting, and
        :meth:`reset_metrics` to zero the underlying shard counters.
        """
        total = StoreMetrics()
        for shard in self._shards:
            shard.metrics.merged_into(total)
        return total

    def shard_metrics(self) -> List[StoreMetrics]:
        """Per-shard statistic snapshots, in shard-id order."""
        return [shard.metrics.snapshot() for shard in self._shards]

    def reset_metrics(self) -> None:
        """Zero the statistics of every shard."""
        for shard in self._shards:
            shard.metrics.reset()

    # ------------------------------------------------------------------ #
    # building and merging                                               #
    # ------------------------------------------------------------------ #

    def _route(self, key: Any) -> MRBGStore:
        return self._shards[self.router.shard_for(key)]

    def build(self, sorted_chunks: Iterable[Tuple[Any, Sequence[Edge]]]) -> None:
        """Write the initial MRBGraph, one sorted batch per shard.

        Chunks are routed to their shards (relative order preserved, so
        each shard's batch stays K2-sorted) and the per-shard builds fan
        out on the execution backend.
        """
        self._check_open()
        per_shard: List[List[Tuple[Any, Sequence[Edge]]]] = [
            [] for _ in range(self.num_shards)
        ]
        for k2, entries in sorted_chunks:
            per_shard[self.router.shard_for(k2)].append((k2, entries))
        pairs = list(zip(self._shards, per_shard))
        self._backend().run_tasks(_run_shard_build, pairs, picklable=False)

    def begin_merge(self, queried_keys: Iterable[Any]) -> None:
        """Start a merge session on every shard.

        Each shard receives its slice of the sorted query key list (the
        paper's L), keeping per-shard window planning intact.

        Raises:
            DuplicateChunkKey: L names some key twice — before any shard
                journals its session.
        """
        self._check_open()
        if self._in_session:
            raise StoreError("merge session already in progress")
        keys = list(queried_keys)
        require_distinct_keys(keys)
        per_shard: List[List[Any]] = [[] for _ in range(self.num_shards)]
        for key in keys:
            per_shard[self.router.shard_for(key)].append(key)
        for shard, shard_keys in zip(self._shards, per_shard):
            shard.begin_merge(shard_keys)
        self._in_session = True

    def get_chunk(self, key: Any) -> Optional[ColumnarEdges]:
        """Retrieve the latest preserved chunk from ``key``'s shard."""
        self._check_open()
        return self._route(key).get_chunk(key)

    def put_chunk(self, key: Any, entries: Sequence[Edge]) -> None:
        """Stage the updated chunk in its shard's append buffer."""
        self._check_open()
        if not self._in_session:
            raise StoreError("put_chunk outside a merge session")
        self._route(key).put_chunk(key, entries)

    def delete_chunk(self, key: Any) -> None:
        """Stage removal of ``key``'s chunk in its shard."""
        self._check_open()
        if not self._in_session:
            raise StoreError("delete_chunk outside a merge session")
        self._route(key).delete_chunk(key)

    def end_merge(self) -> None:
        """Flush and publish the session on every shard."""
        self._check_open()
        if not self._in_session:
            raise StoreError("end_merge without begin_merge")
        for shard in self._shards:
            shard.end_merge()
        self._in_session = False

    def merge_delta(
        self,
        delta_by_key: Iterable[Tuple[Any, List[DeltaEdge]]],
    ) -> Iterator[Tuple[Any, ColumnarEdges]]:
        """Join a sorted delta MRBGraph against the store (§3.3–3.4).

        The delta groups are routed to their shards — each key once; the
        shard ids are kept for the way back — and each shard's slice
        merges as an independent task on the execution backend, so
        independent shards apply their deltas concurrently.  Results are
        re-interleaved into the caller's original (sorted) key order, so
        downstream Reduce re-runs observe exactly the single-store
        sequence.

        Raises:
            DuplicateChunkKey: the delta has two groups for one key —
                before any shard journals its session.
        """
        self._check_open()
        if self._in_session:
            raise StoreError("merge session already in progress")
        delta_list = list(delta_by_key)
        require_distinct_keys([k2 for k2, _ in delta_list])
        per_shard: List[List[Tuple[Any, List[DeltaEdge]]]] = [
            [] for _ in range(self.num_shards)
        ]
        shard_for = self.router.shard_for
        routed = [shard_for(k2) for k2, _ in delta_list]
        for sid, group in zip(routed, delta_list):
            per_shard[sid].append(group)

        sids = [sid for sid, groups in enumerate(per_shard) if groups]
        pairs = [(self._shards[sid], per_shard[sid]) for sid in sids]
        before = [self._shards[sid].metrics.snapshot() for sid in sids]
        backend = self._backend()
        results = backend.run_tasks(_run_shard_merge, pairs, picklable=False)

        specs = []
        for sid, snap in zip(sids, before):
            delta = self._shards[sid].metrics.since(snap)
            specs.append(
                ShardTaskSpec(
                    task_id=f"merge-{sid:04d}",
                    cost_s=delta.read_time_s + delta.write_time_s,
                    shard_id=sid,
                    read_bytes=delta.bytes_read,
                )
            )
        if specs:
            self.last_schedule = schedule_shard_stage(
                specs, self.placement, self.cost_model
            )
        # A resilient backend reports which merge tasks needed retries;
        # their re-executions get a locality-aware retry placement of
        # their own (the fault-free schedule above is untouched).
        failures = getattr(backend, "last_batch_failures", None)
        if failures:
            failed = [
                (specs[index], count + 1)
                for index, count in failures
                if index < len(specs)
            ]
            self.last_retry_schedule = reschedule_failed_tasks(
                failed, self.placement, self.cost_model
            )
        else:
            self.last_retry_schedule = None

        cursors = {sid: iter(res) for sid, res in zip(sids, results)}
        for sid in routed:
            yield next(cursors[sid])

    # ------------------------------------------------------------------ #
    # maintenance                                                        #
    # ------------------------------------------------------------------ #

    def compact(self) -> ScheduleResult:
        """Offline reconstruction of every shard, fanned out in parallel.

        Each shard compaction is a pure plain-data task
        (:func:`run_shard_compact`), so it parallelizes on *every*
        backend — including processes.  Per-shard simulated costs are
        identical to :meth:`MRBGStore.compact` (one sequential scan of
        the old shard file plus one sequential write of its live bytes)
        and are charged to the shard metrics; the stage's locality-aware
        placement on the simulated cluster is returned (and kept in
        :attr:`last_schedule`).
        """
        self._check_open()
        if self._in_session or any(shard._in_session for shard in self._shards):
            raise StoreError("cannot compact during a merge session")
        if any(shard.fault_hook is not None for shard in self._shards):
            # Crash injection needs the full per-shard WAL protocol with
            # its in-operation crash sites — run shard compactions
            # serially through MRBGStore.compact (placement unchanged).
            return self._compact_serial()

        tasks: List[ShardCompactTask] = []
        shard_keys: List[List[Any]] = []
        old_sizes: List[int] = []
        for sid, shard in enumerate(self._shards):
            keys = shard.keys()
            shard_keys.append(keys)
            old_sizes.append(shard.file_size)
            # WAL-protected shards journal the compaction intent before
            # the temp rewrite starts anywhere.
            if shard._wal is not None:
                shard._wal_append(OP_COMPACT_BEGIN)
                shard._wal_flush()
            tasks.append(
                ShardCompactTask(
                    shard_id=sid,
                    data_path=shard._data_path,
                    locations=[
                        (shard._index[key].offset, shard._index[key].length)
                        for key in keys
                    ],
                    append_buffer_size=shard.append_buffer_size,
                    leave_temp=shard._wal is not None,
                )
            )
        results = self._backend().run_tasks(run_shard_compact, tasks)

        specs = []
        for keys, old_size, result in zip(shard_keys, old_sizes, results):
            shard = self._shards[result.shard_id]
            if shard._wal is not None:
                # Commit record (with the full new placement list) is
                # durable before the swap: recovery can finish or undo it.
                shard._wal_append(
                    OP_COMPACT_COMMIT,
                    [
                        (key, offset, length)
                        for key, (offset, length) in zip(keys, result.locations)
                    ],
                    result.file_size,
                )
                shard._wal_flush()
                os.replace(shard._data_path + ".compact", shard._data_path)
            shard._adopt_compacted(
                {
                    key: ChunkLocation(offset, length, 0)
                    for key, (offset, length) in zip(keys, result.locations)
                },
                result.file_size,
            )
            compact_s = shard.cost_model.store_read_time(
                old_size
            ) + shard.cost_model.store_write_time(result.file_size)
            shard.metrics.compactions += 1
            shard.metrics.compact_time_s += compact_s
            specs.append(
                ShardTaskSpec(
                    task_id=f"compact-{result.shard_id:04d}",
                    cost_s=compact_s,
                    shard_id=result.shard_id,
                    read_bytes=old_size,
                )
            )
        self.last_schedule = schedule_shard_stage(
            specs, self.placement, self.cost_model
        )
        return self.last_schedule

    def _compact_serial(self) -> ScheduleResult:
        """Shard-by-shard compaction through :meth:`MRBGStore.compact`."""
        specs = []
        for sid, shard in enumerate(self._shards):
            old_size = shard.file_size
            shard.compact()
            specs.append(
                ShardTaskSpec(
                    task_id=f"compact-{sid:04d}",
                    cost_s=shard.cost_model.store_read_time(old_size)
                    + shard.cost_model.store_write_time(shard.file_size),
                    shard_id=sid,
                    read_bytes=old_size,
                )
            )
        self.last_schedule = schedule_shard_stage(
            specs, self.placement, self.cost_model
        )
        return self.last_schedule

    def maybe_compact(self) -> int:
        """Idle-time opportunity: compact the shards whose policy fires.

        Each shard consults its own
        :class:`~repro.mrbgraph.compaction.CompactionPolicy` against its
        own batch stack, so a hot shard can compact while its siblings
        keep cheap append-only batches.  Returns how many shards
        compacted.
        """
        self._check_open()
        return sum(1 for shard in self._shards if shard.maybe_compact())

    def save_index(self) -> int:
        """Flush every shard's hash index in parallel; returns total bytes.

        Index flushes ship plain-data payloads
        (:func:`run_shard_index_flush`) producing byte-identical
        ``mrbg.idx`` files to per-shard :meth:`MRBGStore.save_index`
        calls (same atomic temp + fsync + rename swap); the write cost is
        charged to each shard's metrics exactly as the serial path would,
        and each shard's write-ahead log is reset to a checkpoint once
        its index is durable.
        """
        self._check_open()
        if any(shard.fault_hook is not None for shard in self._shards):
            # Crash injection needs the in-operation ``pre-index-swap``
            # site — flush serially through MRBGStore.save_index.
            specs = []
            sizes = []
            for sid, shard in enumerate(self._shards):
                nbytes = shard.save_index()
                sizes.append(nbytes)
                specs.append(
                    ShardTaskSpec(
                        task_id=f"flush-{sid:04d}",
                        cost_s=shard.cost_model.store_write_time(nbytes),
                        shard_id=sid,
                        read_bytes=0,
                    )
                )
            self.last_schedule = schedule_shard_stage(
                specs, self.placement, self.cost_model
            )
            return sum(sizes)
        for shard in self._shards:
            shard._wal_flush()
        tasks = [
            ShardIndexFlushTask(
                shard_id=sid,
                index_path=os.path.join(shard.directory, _INDEX_FILE),
                entries=[
                    (key, loc.offset, loc.length, loc.batch)
                    for key, loc in shard._index.items()
                ],
                num_batches=shard._num_batches,
            )
            for sid, shard in enumerate(self._shards)
        ]
        sizes = self._backend().run_tasks(run_shard_index_flush, tasks)

        specs = []
        for sid, nbytes in enumerate(sizes):
            shard = self._shards[sid]
            shard.metrics.io_writes += 1
            shard.metrics.bytes_written += nbytes
            write_s = shard.cost_model.store_write_time(nbytes)
            shard.metrics.write_time_s += write_s
            shard._wal_reset()
            specs.append(
                ShardTaskSpec(
                    task_id=f"flush-{sid:04d}",
                    cost_s=write_s,
                    shard_id=sid,
                    read_bytes=0,
                )
            )
        self.last_schedule = schedule_shard_stage(
            specs, self.placement, self.cost_model
        )
        return sum(sizes)

    def __enter__(self) -> "ShardedMRBGStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardedMRBGStore shards={self.num_shards} "
            f"router={self.router.kind!r} dir={self.directory!r}>"
        )


#: What the engines accept wherever a preserved store is used.
StoreLike = Union[MRBGStore, ShardedMRBGStore]
