"""Workset-driven delta iteration: stop touching the converged frontier.

The paper's CPC (§5.3) prunes converged *values*, but every engine in
this library still sweeps every structure partition each superstep — the
execution layer never shrinks.  This module implements workset (delta)
iterations in the style of Ewen et al., *Spinning Fast Iterative Data
Flows* (see PAPERS.md): each superstep re-maps only the state keys whose
value changed in the previous superstep (the *dirty frontier*, held in a
:class:`Workset`), schedules prime Map tasks only for the shard
partitions that actually hold dirty members (placed through
:class:`repro.cluster.scheduler.ShardPlacement` /
:func:`repro.cluster.scheduler.schedule_shard_stage`), and terminates
when the workset drains empty instead of on a fixed round count or a
global-delta check.

Exactness contract
------------------

A workset superstep produces results identical to a full sweep because
the runner maintains a per-``K2`` *edge cache*: the multiset of
intermediate ``(K2, MK, V2)`` contributions, insertion-ordered exactly as
a full sweep's shuffle would deliver them (map partitions ascending,
DK-sorted groups, per-pair emission order).  A dirty source's re-emission
replaces its old contributions *in place* (same cache slot), so Reduce
re-runs observe each ``K2``'s value list in the very order the full-sweep
:func:`repro.common.kvpair.sort_records` stable sort yields — bitwise
identical reduce inputs, hence bitwise identical outputs for
deterministic reduce functions.  Unaffected ``K2`` groups keep their old
outputs untouched, which full sweep reproduces by recomputation (pure
reduce over unchanged inputs).

Termination contract
--------------------

A key enters the next workset iff its post-reduce state change passes
the algorithm's convergence predicate — the same
:class:`repro.inciter.cpc.ChangePropagationControl` the incremental
engine uses (``threshold=None`` propagates every non-zero change, i.e.
the exact fixpoint).  An empty workset therefore certifies that one more
full sweep would change nothing, so stopping early is safe; conversely
the ``total_difference`` series matches the full-sweep engine's, so an
``epsilon`` stop fires on the same iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.metrics import Counters, StageTimes
from repro.cluster.scheduler import (
    ShardPlacement,
    ShardTaskSpec,
    schedule_shard_stage,
)
from repro.common.hashing import partition_for
from repro.common.kvpair import sort_key
from repro.common.sizeof import record_size
from repro.execution import INLINE_BACKEND, ExecutionBackend
from repro.inciter.cpc import ChangePropagationControl
from repro.iterative.api import IterationStats
from repro.iterative.engine import fold_outputs, map_task_cost
from repro.iterative.partitioning import PartitionedStructure, StructureRecord

#: An edge's identity within one K2 cache bucket: the globally unique MK
#: of the emitting Map instance plus an occurrence index, because one Map
#: instance may legally emit the same ``(K2, MK)`` more than once (GIM-V
#: emits two records for a diagonal block from a single structure pair).
EdgeId = Tuple[int, int]


class Workset:
    """The dirty frontier: state keys whose change must still propagate.

    A thin deterministic set — iteration order is always the library's
    canonical :func:`repro.common.kvpair.sort_key` order so every backend
    sees identical task batches.
    """

    def __init__(self, keys: Iterable[Any] = ()) -> None:
        self._keys: Set[Any] = set(keys)

    def add(self, key: Any) -> None:
        """Mark ``key`` dirty."""
        self._keys.add(key)

    def clear(self) -> None:
        """Drain the frontier."""
        self._keys.clear()

    def keys(self) -> List[Any]:
        """Dirty keys in canonical sort order."""
        return sorted(self._keys, key=sort_key)

    def __len__(self) -> int:
        return len(self._keys)

    def __bool__(self) -> bool:
        return bool(self._keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Workset size={len(self._keys)}>"


def workset_task_specs(
    partitions: Iterable[int],
    costs: Dict[int, float],
    read_bytes: Dict[int, int],
    stage: str,
    iteration: int,
) -> List[ShardTaskSpec]:
    """Build shard-locality task specs for one workset stage.

    One task per partition in ``partitions`` — those holding dirty
    members; every other partition gets no task at all, which is the
    whole point of workset execution.
    """
    return [
        ShardTaskSpec(
            task_id=f"ws-{stage}-{iteration:04d}-{shard:04d}",
            cost_s=costs.get(shard, 0.0),
            shard_id=shard,
            read_bytes=read_bytes.get(shard, 0),
        )
        for shard in sorted(partitions)
    ]


# ---------------------------------------------------------------------- #
# task payloads + task functions (module-level so they pickle)           #
# ---------------------------------------------------------------------- #


@dataclass
class WorksetMapPayload:
    """One workset Map task: a partition's *dirty* structure groups."""

    partition: int
    #: ``(DK, DV-or-None, [(SK, SV, MK, nbytes), ...])`` — the dirty
    #: groups only; ``None`` state values fall back to the algorithm's
    #: initial value, mirroring
    #: :func:`repro.iterative.engine.execute_iter_map_task`.
    groups: List[Tuple[Any, Any, List[StructureRecord]]]
    algorithm: Any


@dataclass
class WorksetMapRun:
    """Per-source emissions of one workset Map task, in emission order."""

    partition: int
    #: ``(DK, [(K2, MK, V2), ...])`` per dirty source group.
    per_source: List[Tuple[Any, List[Tuple[Any, int, Any]]]]
    emitted: int
    emitted_bytes: int
    read_bytes: int
    pairs_done: int


def execute_workset_map_task(payload: WorksetMapPayload) -> WorksetMapRun:
    """Re-map one partition's dirty groups; pure function of its payload."""
    algorithm = payload.algorithm
    per_source: List[Tuple[Any, List[Tuple[Any, int, Any]]]] = []
    emitted = 0
    emitted_bytes = 0
    read_bytes = 0
    pairs_done = 0
    for dk, dv, records in payload.groups:
        if dv is None:
            dv = algorithm.init_state_value(dk)
        read_bytes += record_size(dk, dv)
        emissions: List[Tuple[Any, int, Any]] = []
        for sk, sv, mk, nbytes in records:
            read_bytes += nbytes
            pairs_done += 1
            for k2, v2 in algorithm.map_instance(sk, sv, dk, dv):
                emissions.append((k2, mk, v2))
                emitted += 1
                emitted_bytes += record_size(k2, v2)
        per_source.append((dk, emissions))
    return WorksetMapRun(
        partition=payload.partition,
        per_source=per_source,
        emitted=emitted,
        emitted_bytes=emitted_bytes,
        read_bytes=read_bytes,
        pairs_done=pairs_done,
    )


@dataclass
class WorksetReducePayload:
    """One workset Reduce task: the affected K2 groups of a partition."""

    partition: int
    #: ``(K2, [V2...], has_edges, in_state)`` — values in cache order.
    groups: List[Tuple[Any, List[Any], bool, bool]]
    algorithm: Any
    replicated: bool


@dataclass
class WorksetReduceRun:
    """Outputs of one workset Reduce task."""

    partition: int
    outputs: List[Tuple[Any, Any]]
    #: K2s that no longer earn a Reduce instance (all edges gone and —
    #: for co-partitioned state — not a state key either); their cached
    #: outputs must be forgotten.
    dropped: List[Any]
    values_processed: int
    out_bytes: int


def execute_workset_reduce_task(payload: WorksetReducePayload) -> WorksetReduceRun:
    """Re-reduce affected groups; pure function of its payload.

    Mirrors the full-sweep key plan of
    :func:`repro.iterative.engine.execute_iter_reduce_task`: with
    replicated state only grouped K2s reduce; with co-partitioned state
    every state key reduces even on empty input.
    """
    algorithm = payload.algorithm
    outputs: List[Tuple[Any, Any]] = []
    dropped: List[Any] = []
    values_processed = 0
    out_bytes = 0
    for k2, values, has_edges, in_state in payload.groups:
        live = has_edges if payload.replicated else (has_edges or in_state)
        if not live:
            dropped.append(k2)
            continue
        dv_new = algorithm.reduce_instance(k2, values)
        outputs.append((k2, dv_new))
        values_processed += len(values) + 1
        out_bytes += record_size(k2, dv_new)
    return WorksetReduceRun(
        partition=payload.partition,
        outputs=outputs,
        dropped=dropped,
        values_processed=values_processed,
        out_bytes=out_bytes,
    )


# ---------------------------------------------------------------------- #
# the runner                                                             #
# ---------------------------------------------------------------------- #


class WorksetRunner:
    """Drives one iterative computation as workset supersteps.

    Owns the mutable pieces a delta iteration needs across supersteps:
    the insertion-ordered per-K2 edge cache, the per-source emission
    bookkeeping, the cached reduce outputs, the dirty frontier and the
    convergence filter.  :meth:`seed` runs the mandatory first full sweep
    (every vertex is dirty at iteration 0); :meth:`step` runs one delta
    superstep over the current workset.

    Args:
        algorithm: the iterative algorithm (map/reduce/difference).
        parts: the partitioned structure (shared with the caller; the
            runner observes in-place delta mutations made between steps).
        state: the live state dict — mutated in place each superstep.
        cluster: supplies the cost model and worker count.
        executor: host execution backend for task batches.
        threshold: CPC filter threshold; ``None`` (the default) keeps the
            exact fixpoint — every non-zero change stays dirty.
    """

    def __init__(
        self,
        algorithm: Any,
        parts: PartitionedStructure,
        state: Dict[Any, Any],
        cluster: Cluster,
        executor: Optional[ExecutionBackend] = None,
        threshold: Optional[float] = None,
    ) -> None:
        self.algorithm = algorithm
        self.parts = parts
        self.state = state
        self.cluster = cluster
        self.backend = executor or INLINE_BACKEND
        self.placement = ShardPlacement(
            num_shards=parts.num_partitions,
            num_workers=cluster.num_workers,
        )
        self.cpc = ChangePropagationControl(threshold)
        self.workset = Workset()
        self.counters = Counters()
        #: K2 -> insertion-ordered ``{EdgeId: V2}`` — the live multiset of
        #: contributions, in full-sweep shuffle order.
        self._edges: Dict[Any, Dict[EdgeId, Any]] = {}
        #: (partition, DK) -> ``[(K2, EdgeId), ...]`` emission bookkeeping.
        self._sources: Dict[Tuple[int, Any], List[Tuple[Any, EdgeId]]] = {}
        #: K2 -> latest reduce output (dropped when the group dies).
        self._outputs: Dict[Any, Any] = {}
        self._iteration = 0

    # ------------------------------- cache ----------------------------- #

    def _apply_source(
        self,
        partition: int,
        dk: Any,
        emissions: List[Tuple[Any, int, Any]],
        affected: Set[Any],
    ) -> None:
        """Fold one source group's re-emission into the edge cache.

        Existing edge slots are overwritten in place (order preserved),
        brand-new edges append at the bucket tail, and edges the source
        no longer emits are deleted; every K2 whose bucket changed lands
        in ``affected``.
        """
        source = (partition, dk)
        old_list = self._sources.get(source, [])
        new_list: List[Tuple[Any, EdgeId]] = []
        occurrence: Dict[Tuple[Any, int], int] = {}
        for k2, mk, v2 in emissions:
            seq = occurrence.get((k2, mk), 0)
            occurrence[(k2, mk)] = seq + 1
            edge_id: EdgeId = (mk, seq)
            new_list.append((k2, edge_id))
            bucket = self._edges.setdefault(k2, {})
            if edge_id in bucket:
                if bucket[edge_id] != v2:
                    bucket[edge_id] = v2
                    affected.add(k2)
            else:
                bucket[edge_id] = v2
                affected.add(k2)
        new_set = set(new_list)
        for k2, edge_id in old_list:
            if (k2, edge_id) in new_set:
                continue
            bucket = self._edges.get(k2)
            if bucket is not None and edge_id in bucket:
                del bucket[edge_id]
                affected.add(k2)
                if not bucket:
                    del self._edges[k2]
        if new_list:
            self._sources[source] = new_list
        else:
            self._sources.pop(source, None)

    # ------------------------------ stages ----------------------------- #

    def _run_map_stage(
        self,
        per_partition: Dict[int, List[Any]],
        times: StageTimes,
    ) -> Tuple[Set[Any], int, int]:
        """Map the selected dirty groups and fold emissions into the cache.

        Returns ``(affected K2s, scheduled map tasks, touched vertices)``.
        """
        cost = self.cluster.cost_model
        payloads: List[WorksetMapPayload] = []
        touched = 0
        for p in sorted(per_partition):
            group_items: List[Tuple[Any, Any, List[StructureRecord]]] = []
            part = self.parts.groups[p]
            for dk in sorted(per_partition[p], key=sort_key):
                pairs = part.get(dk)
                if not pairs:
                    continue
                group_items.append((dk, self.state.get(dk), list(pairs)))
                touched += 1
            if group_items:
                payloads.append(
                    WorksetMapPayload(
                        partition=p,
                        groups=group_items,
                        algorithm=self.algorithm,
                    )
                )
        runs = self.backend.run_tasks(execute_workset_map_task, payloads)

        affected: Set[Any] = set()
        costs: Dict[int, float] = {}
        reads: Dict[int, int] = {}
        for run in sorted(runs, key=lambda r: r.partition):
            for dk, emissions in run.per_source:
                self._apply_source(run.partition, dk, emissions, affected)
            costs[run.partition] = map_task_cost(
                cost, self.algorithm, run.read_bytes, run.pairs_done,
                run.emitted, run.emitted_bytes,
            )
            reads[run.partition] = run.read_bytes
            self.counters.add("map_output_records", run.emitted)
            self.counters.add("map_output_bytes", run.emitted_bytes)
            self.counters.add("map_input_pairs", run.pairs_done)
        specs = workset_task_specs(costs.keys(), costs, reads, "map", self._iteration)
        if specs:
            times.map = schedule_shard_stage(specs, self.placement, cost).elapsed_s
        return affected, len(specs), touched

    def _run_reduce_stage(
        self,
        affected: Set[Any],
        times: StageTimes,
    ) -> Tuple[List[Tuple[Any, Any]], int]:
        """Re-reduce the affected K2 groups and refresh the output cache.

        Returns the refreshed ``(K2, DV)`` outputs in full-sweep order
        (reduce partitions ascending, K2-sorted within each) and the
        number of reduce tasks scheduled.
        """
        cost = self.cluster.cost_model
        n = self.parts.num_partitions
        replicated = self.parts.replicated_state
        per_q: Dict[int, List[Any]] = {}
        for k2 in sorted(affected, key=sort_key):
            per_q.setdefault(partition_for(k2, n), []).append(k2)

        payloads: List[WorksetReducePayload] = []
        shuffle_bytes: Dict[int, int] = {}
        shuffle_records: Dict[int, int] = {}
        for q in sorted(per_q):
            groups: List[Tuple[Any, List[Any], bool, bool]] = []
            volume = 0
            records = 0
            for k2 in per_q[q]:
                bucket = self._edges.get(k2)
                values = list(bucket.values()) if bucket else []
                volume += sum(record_size(k2, v2) for v2 in values)
                records += len(values)
                groups.append(
                    (
                        k2,
                        values,
                        bool(bucket),
                        (not replicated) and k2 in self.state,
                    )
                )
            shuffle_bytes[q] = volume
            shuffle_records[q] = records
            payloads.append(
                WorksetReducePayload(
                    partition=q,
                    groups=groups,
                    algorithm=self.algorithm,
                    replicated=replicated,
                )
            )
        runs = self.backend.run_tasks(execute_workset_reduce_task, payloads)

        outputs: List[Tuple[Any, Any]] = []
        costs: Dict[int, float] = {}
        reads: Dict[int, int] = {}
        for run in sorted(runs, key=lambda r: r.partition):
            q = run.partition
            for k2, dv in run.outputs:
                self._outputs[k2] = dv
            for k2 in run.dropped:
                self._outputs.pop(k2, None)
            outputs.extend(run.outputs)
            volume = shuffle_bytes.get(q, 0)
            fetch = cost.disk_read_time(volume // max(1, n)) + cost.net_time(
                volume - volume // max(1, n), transfers=max(1, n - 1)
            )
            task_cost = fetch
            task_cost += cost.sort_time(shuffle_records.get(q, 0))
            task_cost += cost.cpu_time(
                run.values_processed, self.algorithm.reduce_cpu_weight
            )
            task_cost += cost.disk_write_time(run.out_bytes)
            costs[q] = task_cost
            reads[q] = volume
            self.counters.add("shuffle_bytes", volume)
            self.counters.add("reduce_groups", len(run.outputs))
            self.counters.add("reduce_values", run.values_processed)
        specs = workset_task_specs(per_q.keys(), costs, reads, "reduce", self._iteration)
        if specs:
            times.reduce = schedule_shard_stage(specs, self.placement, cost).elapsed_s
        if replicated and outputs:
            state_total = sum(
                record_size(dk, dv) for dk, dv in self.state.items()
            )
            times.reduce += cost.net_time(state_total * max(0, n - 1))
            self.counters.add(
                "state_broadcast_bytes", state_total * max(0, n - 1)
            )
        return outputs, len(specs)

    # ----------------------------- supersteps -------------------------- #

    def seed(self) -> IterationStats:
        """Superstep 0: the mandatory full sweep that primes the caches.

        Every structure group maps and every candidate key reduces —
        byte-identical to :func:`repro.iterative.engine.run_full_iteration`
        — and the first dirty frontier is derived from the resulting state
        changes.
        """
        per_partition = {p: list(g) for p, g in enumerate(self.parts.groups) if g}
        times = StageTimes()
        affected, map_tasks, touched = self._run_map_stage(per_partition, times)
        candidates: Set[Any] = set(self._edges)
        if not self.parts.replicated_state:
            candidates.update(self.state)
        return self._finish(candidates, times, map_tasks, touched)

    def step(self) -> IterationStats:
        """One delta superstep over the current workset.

        Safe on an empty workset (returns an all-zero record and leaves
        the frontier empty); callers normally stop as soon as
        ``runner.workset`` is falsy.
        """
        per_partition = self.parts.partitions_holding(self.workset.keys())
        self.workset.clear()
        times = StageTimes()
        affected, map_tasks, touched = self._run_map_stage(per_partition, times)
        return self._finish(affected, times, map_tasks, touched)

    def _finish(
        self,
        affected: Set[Any],
        times: StageTimes,
        map_tasks: int,
        touched: int,
    ) -> IterationStats:
        """Reduce the affected groups, fold state, derive the next frontier."""
        outputs, reduce_tasks = self._run_reduce_stage(affected, times)
        total_difference, next_dirty = fold_outputs(
            self.algorithm, self.state, outputs, self.parts.replicated_state,
            self.cpc.offer,
        )
        for dk in next_dirty:
            self.workset.add(dk)
        self.counters.add("workset_map_tasks", map_tasks)
        self.counters.add("workset_reduce_tasks", reduce_tasks)
        self.counters.add("workset_touched_vertices", touched)
        stats = IterationStats(
            iteration=self._iteration,
            times=times,
            changed_keys=len(outputs),
            propagated_kv_pairs=len(outputs),
            total_difference=total_difference,
            scheduled_map_tasks=map_tasks,
            scheduled_reduce_tasks=reduce_tasks,
            touched_vertices=touched,
            workset_size=len(self.workset),
        )
        self._iteration += 1
        return stats

    # ------------------------- stepper protocol ------------------------ #

    def advance(self, iteration: int) -> IterationStats:
        """One step for :meth:`repro.iterative.engine.IterMREngine._converge`:
        :meth:`seed` first, :meth:`step` ever after, recorded as the
        caller's ``iteration`` (a fallback run starts numbering above 0)."""
        stats = self.step() if self._iteration else self.seed()
        stats.iteration = iteration
        return stats

    @property
    def exhausted(self) -> bool:
        """Whether the frontier has drained — the fixpoint is reached."""
        return not self.workset
