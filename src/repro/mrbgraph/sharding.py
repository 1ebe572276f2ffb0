"""Sharded MRBG-Store: partitioned preserved state, parallel maintenance.

The paper's MRBG-Store (§3.4) is one monolithic append-only file per
Reduce task, so compaction, window reads and incremental merges all
serialize on a single index even when the host execution layer
(:mod:`repro.execution`) has idle workers.  This module splits one
logical store into ``N`` independent :class:`~repro.mrbgraph.store.MRBGStore`
shards — each with its own append buffer, ``mrbg.dat``/``mrbg.idx`` pair
and window cache — behind the same store interface, so the incremental
engines use a sharded store transparently:

- a :class:`HashShardRouter` maps each ``K2`` to its shard with
  :func:`repro.common.hashing.partition_for`, the placement the engines
  use for everything else;
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

import os
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
    schedule_shard_stage,
)
from repro.common import config
from repro.common.errors import StoreClosedError, StoreError
from repro.common.hashing import partition_for
from repro.common.kvpair import sort_key
from repro.common.serialization import decode_many, encode_many
from repro.mrbgraph.chunk import ColumnarEdges
from repro.mrbgraph.graph import DeltaEdge, Edge
from repro.mrbgraph.store import (
    FaultHook,
    MRBGStore,
    StoreMetrics,
    require_distinct_keys,
    run_shard_compact,
    run_shard_index_flush,
)
from repro.mrbgraph.wal import atomic_write

_MANIFEST_FILE = "mrbg.shards"
_SHARD_DIR_FMT = "shard-%04d"

#: Callable producing a fresh window policy per shard.
PolicyFactory = Any


# ---------------------------------------------------------------------- #
# routing                                                                #
# ---------------------------------------------------------------------- #


class HashShardRouter:
    """Deterministic ``K2 → shard`` mapping: ``partition_for(key, n)``.

    Routes through :func:`repro.common.hashing.partition_for`, the
    library's one deterministic placement function (never Python's
    randomized builtin hash), so placement is identical across processes
    and runs and equals the engines' partitioning.  Routing depends on
    the key alone, so inserting or deleting chunks never moves other
    keys between shards.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self.num_shards = num_shards

    def shard_for(self, key: Any) -> int:
        """Shard index in ``[0, num_shards)`` owning ``key``'s chunk."""
        return partition_for(key, self.num_shards)

    def spec(self) -> Dict[str, Any]:
        """Description persisted in the shard manifest."""
        return {"kind": "hash", "num_shards": self.num_shards}


def _read_manifest(directory: str) -> Optional[Dict[str, Any]]:
    """The router spec of ``directory``'s shard manifest (None if absent).

    Raises:
        StoreError: the manifest names a router kind other than hash.
    """
    manifest_path = os.path.join(directory, _MANIFEST_FILE)
    if not os.path.exists(manifest_path):
        return None
    with open(manifest_path, "rb") as fh:
        spec = decode_many(fh.read())[0]["router"]
    if spec.get("kind") != "hash":
        raise StoreError(f"unknown shard router kind {spec.get('kind')!r}")
    return spec


# ---------------------------------------------------------------------- #
# fan-out task functions                                                 #
# ---------------------------------------------------------------------- #
#
# Thread-level tasks close over live MRBGStore objects (never picklable:
# they hold open file handles), so they are dispatched with
# ``picklable=False`` — the process backend falls back to in-process
# execution while the thread backend runs shards genuinely concurrently.
# Compaction rewrites and index flushes instead ship the plain-data
# payloads of :func:`repro.mrbgraph.store.run_shard_compact` and
# :func:`repro.mrbgraph.store.run_shard_index_flush` (imported here, where
# the benchmark tracer finds them), so they parallelize on every backend
# including processes.


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
        policy_factory: Optional[PolicyFactory] = None,
        cost_model: Optional[CostModel] = None,
        append_buffer_size: int = config.DEFAULT_APPEND_BUFFER_SIZE,
        prefetch_lookahead: int = config.DEFAULT_PREFETCH_LOOKAHEAD,
        executor: Any = None,
        num_workers: Optional[int] = None,
        fault_hook: Optional[FaultHook] = None,
        _reopen: bool = False,
    ) -> None:
        if num_shards is None:
            num_shards = config.DEFAULT_NUM_SHARDS
        self.router = HashShardRouter(num_shards)
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        if not _reopen:
            self._write_manifest()
        self.cost_model = cost_model or CostModel()
        self.policy_factory = policy_factory
        self.append_buffer_size = append_buffer_size
        self.prefetch_lookahead = prefetch_lookahead
        self.placement = ShardPlacement(
            num_shards=num_shards,
            num_workers=num_workers or config.DEFAULT_NUM_WORKERS,
        )
        #: placement of the most recent fanned-out maintenance round.
        self.last_schedule: Optional[ScheduleResult] = None

        self._executor_spec = executor
        self._executor = None
        self._owns_executor = False
        self._in_session = False
        self._closed = False

        self._shards: List[MRBGStore] = []
        for sid in range(num_shards):
            shard_dir = os.path.join(directory, _SHARD_DIR_FMT % sid)
            policy = policy_factory() if policy_factory else None
            if _reopen:
                shard = MRBGStore.open(
                    shard_dir,
                    policy=policy,
                    cost_model=self.cost_model,
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
                    fault_hook=fault_hook,
                    shard_id=sid,
                )
            self._shards.append(shard)

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
        fault_hook: Optional[FaultHook] = None,
    ) -> "ShardedMRBGStore":
        """Reopen a sharded store from its manifest and shard indexes.

        Every shard reopens through :meth:`MRBGStore.open`, so per-shard
        write-ahead-log recovery runs shard by shard — a crash that
        killed one shard mid-operation never affects its siblings.

        Raises:
            StoreError: no manifest, or one naming another placement
                than hash routing.
        """
        spec = _read_manifest(directory)
        if spec is None:
            raise StoreError(f"no shard manifest under {directory!r}")
        return cls(
            directory,
            num_shards=spec["num_shards"],
            policy_factory=policy_factory,
            cost_model=cost_model,
            executor=executor,
            num_workers=num_workers,
            fault_hook=fault_hook,
            _reopen=True,
        )

    def _write_manifest(self) -> None:
        """Persist the shard layout, or check it against the one on disk.

        Raises:
            StoreError: the directory's manifest names another shard
                count — its keys were placed for that count.
        """
        spec = _read_manifest(self.directory)
        if spec is None:
            raw = encode_many([{"router": self.router.spec()}])
            atomic_write(os.path.join(self.directory, _MANIFEST_FILE), raw)
        elif spec["num_shards"] != self.num_shards:
            raise StoreError(
                f"num_shards={self.num_shards} contradicts the "
                f"{spec['num_shards']} shards of the manifest under "
                f"{self.directory!r}"
            )

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
        results = self._backend().run_tasks(_run_shard_merge, pairs, picklable=False)

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

        cursors = {sid: iter(res) for sid, res in zip(sids, results)}
        for sid in routed:
            yield next(cursors[sid])

    # ------------------------------------------------------------------ #
    # maintenance                                                        #
    # ------------------------------------------------------------------ #

    def _run_maintenance(self, fn: Any, tasks: List[Any]) -> List[Any]:
        """Run one maintenance round's per-shard tasks, in shard order.

        The only thing a crash hook decides: with one installed the tasks
        run here, one after another — their crash sites close over live
        shards, and a resilient backend would retry an
        :class:`~repro.faults.injection.InjectedCrash` — otherwise they fan
        out on the execution backend.
        """
        if any(shard.fault_hook is not None for shard in self._shards):
            return [fn(task) for task in tasks]
        return self._backend().run_tasks(fn, tasks)

    def compact(self) -> ScheduleResult:
        """Offline reconstruction of every shard, fanned out in parallel.

        Every shard runs :meth:`MRBGStore.compact`'s protocol: its
        :meth:`~MRBGStore.begin_compact` journals the intent, the
        plain-data rewrites (:func:`run_shard_compact`) run as one round
        (see :meth:`_run_maintenance`), and
        :meth:`~MRBGStore.commit_compact` journals the commit and swaps.
        Per-shard simulated costs are charged to the shard metrics; the
        stage's locality-aware placement on the simulated cluster is
        returned (and kept in :attr:`last_schedule`).
        """
        self._check_open()
        if self._in_session or any(shard._in_session for shard in self._shards):
            raise StoreError("cannot compact during a merge session")
        old_sizes = [shard.file_size for shard in self._shards]
        begun = [shard.begin_compact() for shard in self._shards]
        results = self._run_maintenance(run_shard_compact, [task for _, task in begun])
        specs = [
            ShardTaskSpec(
                task_id=f"compact-{sid:04d}",
                cost_s=shard.commit_compact(keys, result),
                shard_id=sid,
                read_bytes=old_size,
            )
            for sid, (shard, (keys, _), result, old_size) in enumerate(
                zip(self._shards, begun, results, old_sizes)
            )
        ]
        self.last_schedule = schedule_shard_stage(
            specs, self.placement, self.cost_model
        )
        return self.last_schedule

    def maybe_compact(self) -> int:
        """Idle-time opportunity: compact the shards whose policy fires.

        Each shard applies :meth:`MRBGStore.maybe_compact`'s rule to its
        own batch stack, so a shard holding dead bytes compacts while an
        already-compact sibling is left alone.  Returns how many shards
        compacted.
        """
        self._check_open()
        return sum(1 for shard in self._shards if shard.maybe_compact())

    def save_index(self) -> int:
        """Flush every shard's hash index in parallel; returns total bytes.

        Every shard runs :meth:`MRBGStore.save_index`'s protocol:
        :meth:`~MRBGStore.begin_index_flush`, the plain-data index writes
        (:func:`run_shard_index_flush`) as one round (see
        :meth:`_run_maintenance`), then
        :meth:`~MRBGStore.commit_index_flush`, which charges each write to
        its shard and resets that shard's write-ahead log.
        """
        self._check_open()
        tasks = [shard.begin_index_flush() for shard in self._shards]
        sizes = self._run_maintenance(run_shard_index_flush, tasks)
        specs = [
            ShardTaskSpec(
                task_id=f"flush-{sid:04d}",
                cost_s=shard.commit_index_flush(nbytes),
                shard_id=sid,
                read_bytes=0,
            )
            for sid, (shard, nbytes) in enumerate(zip(self._shards, sizes))
        ]
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
            f"dir={self.directory!r}>"
        )


#: What the engines accept wherever a preserved store is used.
StoreLike = Union[MRBGStore, ShardedMRBGStore]
