"""Incremental iterative processing engine (§5).

``run_initial`` executes a full iterMR computation, then preserves the
converged state and the last iteration's MRBGraph in per-partition
MRBG-Stores (§5.1: only the last iteration's states need saving when
starting from the converged state).

``run_incremental`` refreshes the computation for a delta structure
input.  Each iteration is an incremental one-step job (Fig 3):

- **iteration 1**: the delta input is the delta *structure* data; only
  the Map instances of changed structure kv-pairs run, against the
  previously converged state;
- **iteration j ≥ 2**: the delta input is the delta *state* data; only
  the Map instances whose ``project(SK)`` hit a changed state kv-pair
  run, emitting replacement MRBGraph edges;
- each iteration merges its delta MRBGraph into the MRBG-Store
  (multi-batch, multi-dynamic-window reads) and re-runs Reduce only for
  affected K2s;
- **change propagation control** (§5.3) filters sub-threshold changes;
- **P∆ auto-off** (§5.2): when the delta-state proportion exceeds the
  threshold, MRBGraph maintenance shuts off and the remaining iterations
  fall back to full iterMR recomputation from the current state.

The engine *is* an :class:`repro.iterative.engine.IterMREngine`: the initial
run and every fallback go through its one preamble, stepper choice and
convergence loop; the only loop written here is the fine-grain one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.metrics import Counters, JobMetrics, StageTimes
from repro.common.errors import InvalidJobConf, JobError
from repro.common.hashing import partition_for
from repro.common.kvpair import DeltaRecord, Op, group_sorted, sort_key, sort_records
from repro.common.sizeof import columns_size, record_size
from repro.dfs.filesystem import DistributedFS
from repro.execution import ExecutionBackend, ExecutorSpec
from repro.incremental.state import PolicyFactory, PreservedJobState
from repro.inciter.cpc import ChangePropagationControl
from repro.inciter.state import PreservedIterState
from repro.iterative.api import Dependency, IterationStats, IterativeJob
from repro.iterative.engine import (
    MK_BYTES,
    IterMREngine,
    IterMRResult,
    fold_outputs,
    map_task_cost,
)
from repro.iterative.partitioning import StructureRecord, partition_job_cost
from repro.mrbgraph.graph import DeltaEdge

#: Encoded overhead of the +/- op marker on a delta edge.
_OP_BYTES = 2


@dataclass
class DeltaStateMapPayload:
    """One delta-state map task (iteration j >= 2, §5.1)."""

    partition: int
    #: ``(DK, DV_changed, [(SK, SV, MK, nbytes), ...])`` for the changed
    #: state keys whose structure groups live in this partition.
    groups: List[Tuple[Any, Any, List[StructureRecord]]]
    algorithm: Any
    num_partitions: int


@dataclass
class DeltaStateMapRun:
    """Replacement MRBGraph edges emitted by one delta-state map task."""

    partition: int
    #: reduce partition q -> ``[(K2, DeltaEdge), ...]`` in emission order.
    per_q: Dict[int, List[Tuple[Any, "DeltaEdge"]]]
    edge_bytes_per_q: Dict[int, int]
    read_bytes: int
    emitted: int
    emitted_bytes: int
    pairs_done: int


def execute_delta_state_map_task(payload: DeltaStateMapPayload) -> DeltaStateMapRun:
    """Map the structure kv-pairs hit by changed state; pure function."""
    algorithm = payload.algorithm
    n = payload.num_partitions
    per_q: Dict[int, List[Tuple[Any, DeltaEdge]]] = {}
    read_bytes = 0
    pairs_done = 0
    for dk, dv, records in payload.groups:
        read_bytes += record_size(dk, dv)
        for sk, sv, mk, nbytes in records:
            read_bytes += nbytes
            pairs_done += 1
            for k2, v2 in algorithm.map_instance(sk, sv, dk, dv):
                per_q.setdefault(partition_for(k2, n), []).append(
                    (k2, DeltaEdge(mk, v2, Op.INSERT))
                )
    edge_bytes_per_q = {
        q: columns_size([k2 for k2, _ in edges], [edge.value for _, edge in edges])
        + (MK_BYTES + _OP_BYTES) * len(edges)
        for q, edges in per_q.items()
    }
    return DeltaStateMapRun(
        partition=payload.partition,
        per_q=per_q,
        edge_bytes_per_q=edge_bytes_per_q,
        read_bytes=read_bytes,
        emitted=sum(map(len, per_q.values())),
        emitted_bytes=sum(edge_bytes_per_q.values()),
        pairs_done=pairs_done,
    )


@dataclass
class I2MROptions:
    """Runtime options of one incremental iterative job (Table 2)."""

    #: CPC filter threshold; ``None`` disables CPC (i2MR w/o CPC in Fig 8).
    filter_threshold: Optional[float] = None
    #: Maintain the MRBGraph (users may turn it off a priori, §5.2).
    mrbg_enabled: bool = True
    #: Auto-off threshold on the delta-state proportion ``P∆`` (§5.2).
    pdelta_threshold: float = 0.5
    #: Checkpoint state + MRBGraph to the DFS every iteration (§6.1).
    checkpoint: bool = False
    #: Iteration budget for the incremental job.
    max_iterations: int = 10
    #: Convergence threshold for fallback (iterMR-style) iterations.
    epsilon: Optional[float] = None
    #: Record a state snapshot after every iteration (Fig 10 error curves).
    record_states: bool = False
    #: Run fallback iterations as workset supersteps
    #: (:mod:`repro.iterative.workset`) instead of full sweeps: the first
    #: fallback iteration primes the edge cache, later ones re-map only
    #: the dirty frontier, and the run stops when the frontier drains.
    #: ``None`` defers to the ``REPRO_WORKSET`` environment default.
    workset: Optional[bool] = None

    def validate(self) -> None:
        """Raise :class:`InvalidJobConf` on options that would silently
        drop the delta (no iteration budget) or never run fine-grain."""
        if self.max_iterations < 1:
            raise InvalidJobConf("max_iterations must be at least 1")
        if self.pdelta_threshold < 0:
            raise InvalidJobConf("pdelta_threshold must be non-negative")
        for name in ("epsilon", "filter_threshold"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise InvalidJobConf(f"{name} must be non-negative")


@dataclass
class I2MRResult:
    """Result of an incremental iterative run."""

    state: Dict[Any, Any]
    iterations: int
    converged: bool
    per_iteration: List[IterationStats]
    metrics: JobMetrics
    #: iteration index at which MRBGraph maintenance was auto-disabled
    #: (None if it stayed on).
    mrbg_disabled_at: Optional[int] = None
    #: per-iteration state snapshots (only with ``record_states``).
    state_history: List[Dict[Any, Any]] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        """Total simulated seconds."""
        return self.metrics.total_time

    @property
    def fell_back(self) -> bool:
        """Whether the run fell back to full recomputation."""
        return self.mrbg_disabled_at is not None


class I2MREngine(IterMREngine):
    """The §5 engine: fine-grain incremental + general-purpose iterative."""

    def __init__(
        self,
        cluster: Cluster,
        dfs: DistributedFS,
        policy_factory: Optional[PolicyFactory] = None,
        store_root: Optional[str] = None,
        executor: ExecutorSpec = None,
        num_shards: Optional[int] = None,
    ) -> None:
        super().__init__(cluster, dfs, executor)
        self.policy_factory = policy_factory
        self.store_root = store_root
        #: shards per preserved MRBG-Store (None = REPRO_SHARDS default).
        self.num_shards = num_shards

    # ------------------------------------------------------------------ #
    # initial converged run                                              #
    # ------------------------------------------------------------------ #

    def run_initial(
        self,
        job: IterativeJob,
        structure_path: Optional[str] = None,
        initial_state: Optional[Dict[Any, Any]] = None,
    ) -> Tuple[IterMRResult, PreservedIterState]:
        """Run job ``A_0`` to convergence, preserving state + MRBGraph.

        An iterMR run of full sweeps that capture their MRBGraph chunks;
        the last sweep's are built into the per-partition MRBG-Stores.
        """
        run_result, stepper = self._run(
            job, structure_path, initial_state, capture_chunks=True
        )
        cost = self.cluster.cost_model
        stores = PreservedJobState(
            num_reducers=job.num_partitions,
            root_dir=self.store_root,
            policy_factory=self.policy_factory,
            cost_model=cost.unscaled(),
            num_shards=self.num_shards,
            store_executor=self.backend_for(job),
            num_workers=self.cluster.num_workers,
        )
        for q, chunk_list in enumerate(stepper.chunks):
            if chunk_list:
                store = stores.store_for(q)
                store.build(chunk_list)
                store.save_index()
        build_metrics = stores.store_metrics()
        metrics = run_result.metrics
        metrics.times.merge = build_metrics.write_time_s * cost.data_scale
        metrics.counters.add("mrbg_bytes_written", build_metrics.bytes_written)

        return run_result, PreservedIterState(
            algorithm=job.algorithm,
            parts=run_result.parts,
            state=run_result.state,
            stores=stores,
        )

    # ------------------------------------------------------------------ #
    # incremental run                                                    #
    # ------------------------------------------------------------------ #

    def run_incremental(
        self,
        job: IterativeJob,
        delta_records: List[DeltaRecord],
        prev: PreservedIterState,
        options: Optional[I2MROptions] = None,
    ) -> I2MRResult:
        """Run job ``A_i`` incrementally from job ``A_{i-1}``'s state."""
        job.validate()
        options = options or I2MROptions()
        options.validate()
        algorithm = job.algorithm
        cost = self.cluster.cost_model
        parts = prev.parts
        state = dict(prev.state)
        try:
            # Refuse a delta that deletes an absent pair before it changes
            # anything: the structure must keep matching the preserved
            # MRBGraph and state, which a refused delta leaves untouched.
            parts.check_delta(algorithm, delta_records)
        except KeyError as exc:
            raise JobError(f"bad delta: {exc}") from exc

        metrics = JobMetrics()
        metrics.times.startup = cost.job_startup_s
        delta_bytes = sum(
            record_size(rec.key, rec.value) + _OP_BYTES for rec in delta_records
        )
        metrics.times.startup += partition_job_cost(
            cost, self.cluster.num_workers, delta_bytes,
            max(1, len(delta_records)), prev.num_partitions,
        )
        metrics.counters.add("delta_structure_records", len(delta_records))

        per_iteration: List[IterationStats] = []
        state_history: List[Dict[Any, Any]] = []
        converged = False
        mrbg_disabled_at: Optional[int] = None
        if not (options.mrbg_enabled and prev.stores_valid):
            # No MRBGraph to maintain: apply the (accepted) delta to the
            # structure alone.  The preserved MRBGraph no longer matches
            # it, so no later refresh may merge into it.
            mrbg_disabled_at = 0
            self._apply_delta_without_mrbgraph(algorithm, parts, state, delta_records)
            prev.stores_valid = False
        else:
            backend = self.backend_for(job)
            cpc = ChangePropagationControl(options.filter_threshold)
            delta_state: Dict[Any, Any] = {}
            for it in range(options.max_iterations):
                stats, counters, delta_state = self._incremental_iteration(
                    job, prev, state, delta_state,
                    delta_records if it == 0 else None, cpc, options, it, backend,
                )
                metrics.times.add(stats.times)
                metrics.counters.merge(counters)
                per_iteration.append(stats)
                if options.record_states:
                    state_history.append(dict(state))
                if not delta_state:
                    converged = True
                    break
                # §5.2 auto-off: detect an over-costly delta proportion.
                if len(delta_state) / max(1, len(state)) > options.pdelta_threshold:
                    mrbg_disabled_at = it + 1
                    prev.stores_valid = False
                    metrics.counters.add("mrbg_auto_disabled", 1)
                    break

        if mrbg_disabled_at is not None:
            # The recompute fallback: iterMR from the current state, with
            # whatever the fine-grain iterations left of the budget.
            stepper = self._stepper(job, parts, state, options.workset)
            converged = self._converge(
                stepper, metrics, per_iteration, options.max_iterations,
                options.epsilon, state_history if options.record_states else None,
            )
            state = stepper.state

        prev.state = state
        return I2MRResult(
            state=state,
            iterations=len(per_iteration),
            converged=converged,
            per_iteration=per_iteration,
            metrics=metrics,
            mrbg_disabled_at=mrbg_disabled_at,
            state_history=state_history,
        )

    # ------------------------------------------------------------------ #
    # one incremental iteration                                          #
    # ------------------------------------------------------------------ #

    def _incremental_iteration(
        self,
        job: IterativeJob,
        prev: PreservedIterState,
        state: Dict[Any, Any],
        delta_state: Dict[Any, Any],
        delta_records: Optional[List[DeltaRecord]],
        cpc: ChangePropagationControl,
        options: I2MROptions,
        iteration: int,
        backend: ExecutionBackend,
    ) -> Tuple[IterationStats, Counters, Dict[Any, Any]]:
        """One fine-grain iteration (Fig 3): delta map, MRBGraph merge,
        Reduce of the affected K2s, CPC filter.

        Returns the iteration's record, its counters and the delta state
        — the changed ``{DK: DV}`` — that drives the next iteration.
        """
        algorithm = job.algorithm
        cost = self.cluster.cost_model
        parts = prev.parts
        n = parts.num_partitions
        workers = self.cluster.num_workers
        replicated = parts.replicated_state
        times = StageTimes()
        counters = Counters()

        delta_edges: List[List[Tuple[Any, DeltaEdge]]] = [[] for _ in range(n)]
        edge_bytes = [0] * n
        map_loads = [0.0] * workers
        new_dks: List[Any] = []
        removed_dks: List[Any] = []

        if delta_records is not None:
            map_tasks, touched_vertices = self._map_delta_structure(
                algorithm, parts, state, delta_records, delta_edges, edge_bytes,
                map_loads, new_dks, removed_dks, counters,
            )
        else:
            map_tasks, touched_vertices = self._map_delta_state(
                algorithm, parts, delta_state, delta_edges, edge_bytes, map_loads,
                counters, backend,
            )
        times.map = max(map_loads) if map_loads else 0.0
        reduce_tasks = sum(1 for q in range(n) if delta_edges[q])

        # ----------------------- shuffle + sort ------------------------ #
        shuffle_loads = [0.0] * workers
        sort_loads = [0.0] * workers
        for q in range(n):
            if not delta_edges[q]:
                continue
            total = edge_bytes[q]
            local = int(total / max(1, n))
            shuffle_loads[q % workers] += cost.disk_read_time(local)
            shuffle_loads[q % workers] += cost.net_time(
                total - local, transfers=max(1, n - 1)
            )
            counters.add("shuffle_bytes", total)
            delta_edges[q] = sort_records(delta_edges[q])
            sort_loads[q % workers] += cost.sort_time(len(delta_edges[q]))
            counters.add("delta_edges", len(delta_edges[q]))
        times.shuffle = max(shuffle_loads)
        times.sort = max(sort_loads)

        # ------------------------ merge + reduce ----------------------- #
        reduce_loads = [0.0] * workers
        changed_outputs: List[Tuple[Any, Any]] = []
        removed_set = set(removed_dks)
        store_reads_total = 0
        store_bytes_read_total = 0
        store_bytes_written_total = 0

        for q in range(n):
            if not delta_edges[q]:
                continue
            store = prev.stores.store_for(q)
            snap = store.metrics.snapshot()
            values_processed = 0
            for k2, entries in store.merge_delta(list(group_sorted(delta_edges[q]))):
                if k2 in removed_set:
                    continue
                if (
                    algorithm.dependency is Dependency.ONE_TO_ONE
                    and k2 not in parts.groups[q]
                ):
                    # Ghost reduce instance: its structure kv-pair is gone.
                    state.pop(k2, None)
                    continue
                dv_new = algorithm.reduce_instance(k2, list(entries.values))
                changed_outputs.append((k2, dv_new))
                values_processed += len(entries) + 1
            part_delta = store.metrics.since(snap)
            store_time = (
                part_delta.read_time_s + part_delta.write_time_s
            ) * cost.data_scale
            reduce_loads[q % workers] += store_time
            store_reads_total += part_delta.io_reads
            store_bytes_read_total += part_delta.bytes_read
            store_bytes_written_total += part_delta.bytes_written
            reduce_loads[q % workers] += cost.cpu_time(
                values_processed, algorithm.reduce_cpu_weight
            )
            counters.add("reduce_values", values_processed)

        # Chunk + state cleanup for fully removed state keys.
        for dk in removed_dks:
            state.pop(dk, None)
            q = partition_for(dk, n)
            store = prev.stores.store_for(q)
            if dk in store:
                store.begin_merge([])
                store.delete_chunk(dk)
                store.end_merge()

        # Brand-new state keys with no in-edges get the base Reduce value.
        if new_dks:
            produced = {k2 for k2, _ in changed_outputs}
            for dk in new_dks:
                if dk not in produced and dk not in state:
                    changed_outputs.append((dk, algorithm.reduce_instance(dk, [])))

        counters.add("affected_reduce_instances", len(changed_outputs))

        # --------------------- assemble + CPC filter ------------------- #
        total_difference, propagated = fold_outputs(
            algorithm, state, changed_outputs, replicated, cpc.offer
        )
        next_delta_state = {key: state[key] for key in propagated}
        changed_state_bytes = sum(record_size(key, state[key]) for key in propagated)

        times.reduce = max(reduce_loads) + cost.disk_write_time(changed_state_bytes)
        counters.add("mrbg_reads", store_reads_total)
        counters.add("mrbg_bytes_read", store_bytes_read_total)
        counters.add("mrbg_bytes_written", store_bytes_written_total)

        if options.checkpoint:
            ckpt_bytes = changed_state_bytes + store_bytes_written_total
            times.checkpoint = cost.disk_write_time(ckpt_bytes) + cost.net_time(
                ckpt_bytes * max(0, self.dfs.replication - 1)
            )

        stats = IterationStats(
            iteration=iteration,
            times=times,
            changed_keys=len(changed_outputs),
            propagated_kv_pairs=len(next_delta_state),
            total_difference=total_difference,
            mrbg_maintained=True,
            scheduled_map_tasks=map_tasks,
            scheduled_reduce_tasks=reduce_tasks,
            touched_vertices=touched_vertices,
            workset_size=len(next_delta_state),
        )
        return stats, counters, next_delta_state

    # ------------------------------------------------------------------ #
    # delta map phases                                                   #
    # ------------------------------------------------------------------ #

    def _map_delta_structure(
        self,
        algorithm: Any,
        parts: Any,
        state: Dict[Any, Any],
        delta_records: List[DeltaRecord],
        delta_edges: List[List[Tuple[Any, DeltaEdge]]],
        edge_bytes: List[int],
        map_loads: List[float],
        new_dks: List[Any],
        removed_dks: List[Any],
        counters: Counters,
    ) -> Tuple[int, int]:
        """Iteration 1: map only the changed structure kv-pairs (§5.1).

        Returns ``(map tasks materialized, distinct state keys touched)``
        for the scheduling-footprint stats.
        """
        cost = self.cluster.cost_model
        n = parts.num_partitions
        workers = self.cluster.num_workers
        per_partition: Dict[int, List[DeltaRecord]] = {}
        for rec in delta_records:
            p = parts.partition_of(algorithm, rec.key)
            per_partition.setdefault(p, []).append(rec)

        # A state key counts as removed only when the *net* effect of the
        # whole delta leaves it without structure (an update is a deletion
        # followed by an insertion of the same key, §3.1).
        removal_candidates: set = set()
        touched_dks: set = set()

        for p, recs in per_partition.items():
            read_bytes = 0
            emitted = 0
            emitted_bytes = 0
            for rec in recs:
                sk, sv, op = rec.key, rec.value, rec.op
                dk = algorithm.project(sk)
                touched_dks.add(dk)
                if op is Op.DELETE:
                    _, _, mk, size = parts.delete_pair(algorithm, sk, sv)
                    if algorithm.dependency is Dependency.ONE_TO_ONE:
                        removal_candidates.add(dk)
                else:
                    _, _, mk, size = parts.insert_pair(algorithm, sk, sv)
                    if dk not in state:
                        new_dks.append(dk)
                read_bytes += size + _OP_BYTES
                dv = state.get(dk)
                if dv is None:
                    dv = algorithm.init_state_value(dk)
                outs = algorithm.map_instance(sk, sv, dk, dv)
                emitted += len(outs)
                for k2, v2 in outs:
                    if op is Op.DELETE:
                        v2 = None  # a deletion edge names its MK, not a value
                    q = partition_for(k2, n)
                    delta_edges[q].append((k2, DeltaEdge(mk, v2, op)))
                    nbytes = record_size(k2, v2) + MK_BYTES + _OP_BYTES
                    edge_bytes[q] += nbytes
                    emitted_bytes += nbytes
            map_loads[p % workers] += map_task_cost(
                cost, algorithm, read_bytes, len(recs), emitted, emitted_bytes
            )
        for dk in sorted(removal_candidates, key=sort_key):
            p = partition_for(dk, parts.num_partitions)
            if dk not in parts.groups[p]:
                removed_dks.append(dk)
        counters.add("delta_map_instances", len(delta_records))
        return len(per_partition), len(touched_dks)

    def _map_delta_state(
        self,
        algorithm: Any,
        parts: Any,
        delta_state: Dict[Any, Any],
        delta_edges: List[List[Tuple[Any, DeltaEdge]]],
        edge_bytes: List[int],
        map_loads: List[float],
        counters: Counters,
        backend: ExecutionBackend,
    ) -> Tuple[int, int]:
        """Iteration j ≥ 2: map the structure kv-pairs whose interdependent
        state kv-pair changed (§5.1).

        These map tasks are pure (the structure is not mutated in state
        iterations), so the batch runs on the job's execution backend;
        emissions merge in partition order.  Returns ``(map tasks
        materialized, state-key groups mapped)`` for the
        scheduling-footprint stats.
        """
        cost = self.cluster.cost_model
        n = parts.num_partitions
        workers = self.cluster.num_workers
        per_partition = parts.partitions_holding(delta_state)
        payloads = [
            DeltaStateMapPayload(
                partition=p,
                groups=[
                    (dk, delta_state[dk], list(parts.groups[p][dk])) for dk in dks
                ],
                algorithm=algorithm,
                num_partitions=n,
            )
            for p, dks in sorted(per_partition.items())
        ]
        runs = backend.run_tasks(execute_delta_state_map_task, payloads)

        instances = 0
        for run in sorted(runs, key=lambda r: r.partition):
            p = run.partition
            for q in sorted(run.per_q):
                delta_edges[q].extend(run.per_q[q])
                edge_bytes[q] += run.edge_bytes_per_q[q]
            map_loads[p % workers] += map_task_cost(
                cost, algorithm, run.read_bytes, run.pairs_done, run.emitted,
                run.emitted_bytes,
            )
            instances += run.pairs_done
        counters.add("delta_map_instances", instances)
        return len(payloads), sum(len(v) for v in per_partition.values())

    # ------------------------------------------------------------------ #
    # helpers                                                            #
    # ------------------------------------------------------------------ #

    @staticmethod
    def _apply_delta_without_mrbgraph(
        algorithm: Any,
        parts: Any,
        state: Dict[Any, Any],
        delta_records: List[DeltaRecord],
    ) -> None:
        """Apply a structure delta with no incremental processing, then
        align the state key set with the structure.

        The fine-grain path prunes removed state keys and seeds brand-new
        ones as it merges; a fallback entered with MRBGraph maintenance
        off (by option, or stores invalidated by an earlier auto-off) must
        reconcile explicitly.  Only one-to-one dependencies tie the state
        domain to the structure keys.
        """
        for rec in delta_records:
            mutate = parts.delete_pair if rec.op is Op.DELETE else parts.insert_pair
            mutate(algorithm, rec.key, rec.value)
        if algorithm.dependency is not Dependency.ONE_TO_ONE:
            return
        live: set = set()
        for group in parts.groups:
            live.update(group)
        for stale in [dk for dk in state if dk not in live]:
            del state[stale]
        for dk in live:
            if dk not in state:
                state[dk] = algorithm.init_state_value(dk)
