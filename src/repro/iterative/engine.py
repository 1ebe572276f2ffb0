"""The iterMR engine: general-purpose iterative MapReduce (§4).

Improvements over vanilla MapReduce, as the paper describes:

- **job reuse** — startup cost is paid once, not per iteration;
- **structure caching** — structure data is partitioned, sorted by
  ``project(SK)`` and cached in binary form on local disks during a
  preprocessing job, so iterations re-read it locally without parsing and
  never shuffle it;
- **co-location** — prime Reduce task *i* runs on the same worker as
  prime Map task *i* and produces exactly the state partition *i*, so
  updated state flows to the next iteration without network traffic.

The per-iteration computation lives in :func:`run_full_iteration`.

:class:`IterMREngine` is also *the* iterative driver of the library: one
set-up preamble, one choice between full sweeps and workset supersteps,
and one convergence loop over a *stepper*.  The incremental-iterative
engine (:class:`repro.inciter.engine.I2MREngine`) is built on it, as the
paper builds i2MapReduce on iterMR: its initial run is this run with the
last MRBGraph captured (§5.1), and its recompute fallback — stores
invalid, MRBGraph off, or the ``P∆`` auto-off of §5.2 — is this loop
continued from the current state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.costmodel import CostModel
from repro.cluster.metrics import Counters, JobMetrics, StageTimes
from repro.common import config
from repro.common.hashing import partition_for
from repro.common.kvpair import sort_key, sort_records
from repro.common.sizeof import columns_size, record_size
from repro.dfs.filesystem import DistributedFS
from repro.execution import (
    INLINE_BACKEND,
    ExecutionBackend,
    ExecutorSelector,
    ExecutorSpec,
)
from repro.iterative.api import IterationStats, IterativeJob
from repro.iterative.partitioning import (
    PartitionedStructure,
    StructureRecord,
    partition_job_cost,
    partition_structure,
    state_bytes_by_partition,
)

#: Encoded overhead of shipping the globally unique MK with each
#: intermediate kv-pair (one tagged 64-bit int), charged only when the
#: MRBGraph is being maintained (§3.3: "transfers the globally unique MK
#: along with <K2, V2> during the shuffle phase").
MK_BYTES = 9


def map_task_cost(
    cost: CostModel,
    algorithm: Any,
    read_bytes: int,
    pairs: int,
    emitted: int,
    emitted_bytes: int,
) -> float:
    """Simulated seconds of one prime Map task, full sweep or delta alike.

    Read its input, run ``pairs`` Map instances, sort and spill the output."""
    return (
        cost.disk_read_time(read_bytes)
        + cost.cpu_time(pairs, algorithm.map_cpu_weight)
        + cost.sort_time(emitted)
        + cost.disk_write_time(emitted_bytes)
    )


def fold_outputs(
    algorithm: Any,
    state: Dict[Any, Any],
    outputs: List[Tuple[Any, Any]],
    replicated: bool,
    offer: Optional[Callable[[Any, float], bool]] = None,
) -> Tuple[float, List[Any]]:
    """Assemble prime-Reduce ``outputs`` into ``state`` in place.

    Returns the summed ``difference`` against the previous values and the
    keys whose change must propagate: brand-new keys always, changed keys
    when ``offer(key, difference)`` (a CPC filter) accepts them — none of
    the latter without an ``offer``.  Co-partitioned state compares each
    output with the value it replaces; replicated state is re-assembled
    first (one composite value absorbs many outputs) and compared whole.
    """
    total_difference = 0.0
    propagate: List[Any] = []
    if replicated:
        previous = dict(state)
        algorithm.assemble_state(state, outputs)
        candidates = state.items()
    else:
        previous = state
        candidates = outputs
    for dk, dv in candidates:
        old = previous.get(dk)
        if old is None:
            propagate.append(dk)
            continue
        diff = algorithm.difference(dv, old)
        total_difference += diff
        if offer is not None and offer(dk, diff):
            propagate.append(dk)
    if not replicated:
        algorithm.assemble_state(state, outputs)
    return total_difference, propagate


# ---------------------------------------------------------------------- #
# prime task payloads + task functions (module-level so they pickle)     #
# ---------------------------------------------------------------------- #


@dataclass
class IterMapPayload:
    """One prime Map task: a partition's structure groups + state slice."""

    partition: int
    #: ``(DK, [(SK, SV, MK, nbytes), ...])`` groups in DK-sorted order.
    groups: List[Tuple[Any, List[StructureRecord]]]
    #: state values for exactly the DKs appearing in ``groups``.
    state_slice: Dict[Any, Any]
    algorithm: Any
    num_partitions: int
    capture_chunks: bool


@dataclass
class IterMapRun:
    """Emissions of one prime Map task, pre-bucketed by reduce partition."""

    partition: int
    #: reduce partition q -> emitted ``(K2, MK, V2)`` in emission order.
    per_q: Dict[int, List[Tuple[Any, int, Any]]]
    #: reduce partition q -> encoded bytes of ``per_q[q]`` (MK included
    #: with capture_chunks): every emitted record is sized here, once.
    bytes_per_q: Dict[int, int]
    emitted: int
    emitted_bytes: int


def execute_iter_map_task(payload: IterMapPayload) -> IterMapRun:
    """Run one prime Map task; pure function of its payload."""
    algorithm = payload.algorithm
    n = payload.num_partitions
    capture = payload.capture_chunks
    per_q: Dict[int, List[Tuple[Any, int, Any]]] = {}
    for dk, records in payload.groups:
        dv = payload.state_slice.get(dk)
        if dv is None:
            dv = algorithm.init_state_value(dk)
        for sk, sv, mk, _ in records:
            if not capture:
                mk = 0
            for k2, v2 in algorithm.map_instance(sk, sv, dk, dv):
                per_q.setdefault(partition_for(k2, n), []).append((k2, mk, v2))
    overhead = MK_BYTES if capture else 0
    bytes_per_q = {
        q: columns_size([k2 for k2, _, _ in recs], [v2 for _, _, v2 in recs])
        + overhead * len(recs)
        for q, recs in per_q.items()
    }
    return IterMapRun(
        partition=payload.partition,
        per_q=per_q,
        bytes_per_q=bytes_per_q,
        emitted=sum(map(len, per_q.values())),
        emitted_bytes=sum(bytes_per_q.values()),
    )


@dataclass
class IterReducePayload:
    """One prime Reduce task: a partition's shuffled records + key plan."""

    partition: int
    #: shuffled ``(K2, MK, V2)`` records, unsorted.
    records: List[Tuple[Any, int, Any]]
    algorithm: Any
    #: state keys owed a Reduce instance even with empty input
    #: (co-partitioned algorithms only; empty when state is replicated).
    extra_keys: List[Any]
    replicated: bool
    capture_chunks: bool


@dataclass
class IterReduceRun:
    """Outputs of one prime Reduce task."""

    partition: int
    outputs: List[Tuple[Any, Any]]
    #: K2-sorted ``[(K2, [(MK, V2), ...])]`` — only with capture_chunks.
    chunk_list: Optional[List[Tuple[Any, List[Tuple[int, Any]]]]]
    values_processed: int
    out_bytes: int


def execute_iter_reduce_task(payload: IterReducePayload) -> IterReduceRun:
    """Run one prime Reduce task; pure function of its payload."""
    algorithm = payload.algorithm
    records = sort_records(payload.records)
    grouped: Dict[Any, List[Tuple[int, Any]]] = {}
    for k2, mk, v2 in records:
        grouped.setdefault(k2, []).append((mk, v2))

    if payload.replicated:
        reduce_keys = sorted(grouped, key=sort_key)
    else:
        # Every state kv-pair of this partition gets a Reduce instance
        # (empty-input groups produce the algorithm's base value), plus
        # any brand-new K2s that received contributions.
        key_set = set(payload.extra_keys)
        key_set.update(grouped)
        reduce_keys = sorted(key_set, key=sort_key)

    outputs: List[Tuple[Any, Any]] = []
    chunk_list: Optional[List[Tuple[Any, List[Tuple[int, Any]]]]] = (
        [] if payload.capture_chunks else None
    )
    values_processed = 0
    out_bytes = 0
    for k2 in reduce_keys:
        entries = grouped.get(k2, [])
        values = [v2 for _, v2 in entries]
        dv_new = algorithm.reduce_instance(k2, values)
        outputs.append((k2, dv_new))
        values_processed += len(values) + 1
        out_bytes += record_size(k2, dv_new)
        if payload.capture_chunks and entries:
            chunk_list.append((k2, entries))
    return IterReduceRun(
        partition=payload.partition,
        outputs=outputs,
        chunk_list=chunk_list,
        values_processed=values_processed,
        out_bytes=out_bytes,
    )


@dataclass
class FullIterationResult:
    """Output of one full (non-incremental) iteration."""

    new_state: Dict[Any, Any]
    outputs: List[Tuple[Any, Any]]
    times: StageTimes
    counters: Counters
    total_difference: float
    #: per reduce partition: K2-sorted ``[(K2, [(MK, V2), ...])]`` —
    #: captured only when the caller maintains a MRBG-Store.
    chunks: Optional[List[List[Tuple[Any, List[Tuple[int, Any]]]]]] = None


def run_full_iteration(
    algorithm: Any,
    parts: PartitionedStructure,
    state: Dict[Any, Any],
    cluster: Cluster,
    capture_chunks: bool = False,
    fault_context: Optional[Any] = None,
    executor: Optional[ExecutionBackend] = None,
) -> FullIterationResult:
    """Execute one complete iteration over every structure kv-pair.

    Runs the real map/reduce functions and charges per-stage simulated
    time.  With ``capture_chunks`` the per-Reduce-instance edge lists
    (the MRBGraph chunks) are returned and the MK shuffle overhead is
    charged.  Prime Map and prime Reduce task batches run on
    ``executor`` (default: inline serial); results are merged in
    partition order, so everything but host wall-clock is
    backend-independent.
    """
    cost = cluster.cost_model
    n = parts.num_partitions
    workers = cluster.num_workers
    counters = Counters()
    times = StageTimes()
    replicated = parts.replicated_state
    backend = executor or INLINE_BACKEND

    state_sizes = state_bytes_by_partition(state, n, replicated)

    # ------------------------------ map ------------------------------ #
    # intermediate[q] collects (K2, MK, V2) destined for reduce task q.
    intermediate: List[List[Tuple[Any, int, Any]]] = [[] for _ in range(n)]
    map_loads = [0.0] * workers
    map_task_costs: List[float] = []

    map_payloads: List[IterMapPayload] = []
    for p in range(n):
        group_items = list(parts.iter_groups(p))
        state_slice = {
            dk: state[dk] for dk, _ in group_items if dk in state
        }
        map_payloads.append(
            IterMapPayload(
                partition=p,
                groups=group_items,
                state_slice=state_slice,
                algorithm=algorithm,
                num_partitions=n,
                capture_chunks=capture_chunks,
            )
        )
    map_runs = backend.run_tasks(execute_iter_map_task, map_payloads)

    shuffle_bytes = [0] * n
    for run in sorted(map_runs, key=lambda r: r.partition):
        p = run.partition
        for q in sorted(run.per_q):
            intermediate[q].extend(run.per_q[q])
            shuffle_bytes[q] += run.bytes_per_q[q]
        task_cost = map_task_cost(
            cost, algorithm, parts.structure_bytes[p] + state_sizes[p],
            parts.num_pairs[p], run.emitted, run.emitted_bytes,
        )
        map_loads[p % workers] += task_cost
        map_task_costs.append(task_cost)
        counters.add("map_output_records", run.emitted)
        counters.add("map_output_bytes", run.emitted_bytes)
    counters.add("map_input_pairs", parts.total_pairs())
    times.map = max(map_loads)

    # ---------------------------- shuffle ----------------------------- #
    shuffle_loads = [0.0] * workers
    reduce_task_costs = [0.0] * n
    for q in range(n):
        # Volume from each map partition p; records were produced
        # partition-at-a-time so we approximate the per-source split by
        # charging local transfer for the co-located source only.
        total_bytes = shuffle_bytes[q]
        local_fraction = 1.0 / max(1, n)
        local_bytes = int(total_bytes * local_fraction)
        remote_bytes = total_bytes - local_bytes
        fetch = cost.disk_read_time(local_bytes) + cost.net_time(
            remote_bytes, transfers=max(1, n - 1)
        )
        shuffle_loads[q % workers] += fetch
        reduce_task_costs[q] += fetch
        counters.add("shuffle_bytes", total_bytes)
        counters.add("shuffle_net_bytes", remote_bytes)
    times.shuffle = max(shuffle_loads)

    # ------------------------------ sort ------------------------------ #
    # The physical sort happens inside each reduce task; the cost is
    # charged here per partition so the stage split matches Fig 9.
    sort_loads = [0.0] * workers
    for q in range(n):
        sort_s = cost.sort_time(len(intermediate[q]))
        sort_loads[q % workers] += sort_s
        reduce_task_costs[q] += sort_s
    times.sort = max(sort_loads)

    # ----------------------------- reduce ----------------------------- #
    reduce_loads = [0.0] * workers
    outputs: List[Tuple[Any, Any]] = []
    chunks: Optional[List[List[Tuple[Any, List[Tuple[int, Any]]]]]] = (
        [[] for _ in range(n)] if capture_chunks else None
    )

    state_keys_by_part: List[List[Any]] = [[] for _ in range(n)]
    if not replicated:
        for dk in state:
            state_keys_by_part[partition_for(dk, n)].append(dk)

    reduce_payloads = [
        IterReducePayload(
            partition=q,
            records=intermediate[q],
            algorithm=algorithm,
            extra_keys=state_keys_by_part[q],
            replicated=replicated,
            capture_chunks=capture_chunks,
        )
        for q in range(n)
    ]
    reduce_runs = backend.run_tasks(execute_iter_reduce_task, reduce_payloads)

    for run in sorted(reduce_runs, key=lambda r: r.partition):
        q = run.partition
        outputs.extend(run.outputs)
        if capture_chunks:
            chunks[q] = run.chunk_list

        task_cost = cost.cpu_time(run.values_processed, algorithm.reduce_cpu_weight)
        task_cost += cost.disk_write_time(run.out_bytes)
        reduce_loads[q % workers] += task_cost
        reduce_task_costs[q] += task_cost
        counters.add("reduce_groups", len(run.outputs))
        counters.add("reduce_values", run.values_processed)

    # Fold outputs into the state and measure the total change.
    new_state = dict(state)
    total_difference, _ = fold_outputs(algorithm, new_state, outputs, replicated)
    if replicated:
        # Replicating the small state back to every partition costs one
        # broadcast; co-partitioned algorithms pay nothing (§4.3).
        state_total = sum(record_size(dk, dv) for dk, dv in new_state.items())
        broadcast = cost.net_time(state_total * max(0, n - 1))
        reduce_loads[0] += broadcast
        counters.add("state_broadcast_bytes", state_total * max(0, n - 1))
    times.reduce = max(reduce_loads)

    if fault_context is not None:
        times = fault_context.apply(
            map_task_costs=map_task_costs,
            reduce_task_costs=reduce_task_costs,
            times=times,
            cluster=cluster,
        )

    return FullIterationResult(
        new_state=new_state,
        outputs=outputs,
        times=times,
        counters=counters,
        total_difference=total_difference,
        chunks=chunks,
    )


@dataclass
class IterMRResult:
    """Result of an iterMR run."""

    state: Dict[Any, Any]
    iterations: int
    converged: bool
    per_iteration: List[IterationStats]
    metrics: JobMetrics
    preprocess_s: float
    parts: Optional[PartitionedStructure] = None

    @property
    def total_time(self) -> float:
        """Total simulated seconds including startup and preprocessing."""
        return self.metrics.total_time


@dataclass
class FullSweepStepper:
    """The bulk stepper: every step is one :func:`run_full_iteration`.

    A *stepper* is what :meth:`IterMREngine._converge` drives — this class
    or a :class:`repro.iterative.workset.WorksetRunner`: ``advance(it)``
    runs one iteration and returns its :class:`IterationStats`,
    ``exhausted`` says nothing is left to do (never, for full sweeps: only
    epsilon or the budget stops them), ``state`` is the live state and
    ``counters`` what the steps tallied.  With ``capture_chunks``,
    ``chunks`` keeps the last sweep's MRBGraph — all §5.1 preserves.
    """

    algorithm: Any
    parts: PartitionedStructure
    state: Dict[Any, Any]
    cluster: Cluster
    executor: Optional[ExecutionBackend] = None
    capture_chunks: bool = False
    fault_context: Optional[Any] = None
    counters: Counters = field(default_factory=Counters)
    chunks: Optional[List[List[Tuple[Any, List[Tuple[int, Any]]]]]] = None

    exhausted = False

    def advance(self, iteration: int) -> IterationStats:
        """Sweep every structure partition once; ``state`` is replaced."""
        result = run_full_iteration(
            self.algorithm, self.parts, self.state, self.cluster,
            self.capture_chunks, self.fault_context, self.executor,
        )
        self.state = result.new_state
        self.chunks = result.chunks
        self.counters.merge(result.counters)
        return IterationStats(
            iteration=iteration,
            times=result.times,
            changed_keys=len(result.outputs),
            propagated_kv_pairs=len(result.outputs),
            total_difference=result.total_difference,
            mrbg_maintained=self.capture_chunks,
            scheduled_map_tasks=self.parts.num_partitions,
            scheduled_reduce_tasks=self.parts.num_partitions,
            touched_vertices=sum(len(g) for g in self.parts.groups),
        )


class IterMREngine:
    """Runs :class:`IterativeJob` computations with the §4 optimizations.

    Args:
        executor: engine-wide default host execution backend; individual
            jobs override it via ``IterativeJob.executor``.
    """

    def __init__(
        self,
        cluster: Cluster,
        dfs: DistributedFS,
        executor: ExecutorSpec = None,
    ) -> None:
        self.cluster = cluster
        self.dfs = dfs
        self.executors = ExecutorSelector(executor, cost_model=cluster.cost_model)

    def backend_for(self, job: IterativeJob) -> ExecutionBackend:
        """The resilient execution backend this job's task batches run on
        (:meth:`repro.execution.ExecutorSelector.for_job`)."""
        return self.executors.for_job(job)

    def close(self) -> None:
        """Shut down any host worker pools the engine created."""
        self.executors.close()

    def run(
        self,
        job: IterativeJob,
        structure_path: Optional[str] = None,
        initial_state: Optional[Dict[Any, Any]] = None,
        parts: Optional[PartitionedStructure] = None,
        charge_preprocess: bool = True,
        fault_context: Optional[Any] = None,
    ) -> IterMRResult:
        """Run the iterative computation to convergence or the budget.

        Args:
            structure_path: DFS path of the raw structure input (written
                from the dataset when absent); used to charge the
                preprocessing partition job.
            initial_state: starting state (defaults to the algorithm's
                initial state for the dataset).
            parts: pre-partitioned structure (skips partitioning work).
            charge_preprocess: include the partition job in the reported
                time (Fig 8 includes it; Fig 9 excludes it).
        """
        return self._run(
            job, structure_path, initial_state, parts, charge_preprocess, fault_context
        )[0]

    # ------------------------------------------------------------------ #
    # the iterative driver: preamble, stepper choice, convergence loop   #
    # ------------------------------------------------------------------ #

    def _run(
        self, job: IterativeJob, structure_path: Optional[str] = None,
        initial_state: Optional[Dict[Any, Any]] = None,
        parts: Optional[PartitionedStructure] = None, charge_preprocess: bool = True,
        fault_context: Optional[Any] = None, capture_chunks: bool = False,
    ) -> Tuple[IterMRResult, Any]:
        """:meth:`run`, handing back the stepper too — the incremental
        engine's initial run reads the captured chunks off it (§5.1)."""
        job.validate()
        algorithm = job.algorithm
        cost = self.cluster.cost_model

        # The set-up preamble (§4.3): structure on the DFS, partitioned
        # and cached by a priced preprocessing job unless the caller
        # brings ``parts``; a private copy of the starting state.
        if structure_path is None:
            structure_path = f"/{algorithm.name}/structure"
        if not self.dfs.exists(structure_path):
            self.dfs.write(structure_path, algorithm.structure_records(job.dataset))
        preprocess_s = 0.0
        if parts is None:
            dfs_file = self.dfs.file(structure_path)
            records = self.dfs.read_all(structure_path)
            parts = partition_structure(algorithm, records, job.num_partitions)
            preprocess_s = partition_job_cost(
                cost, self.cluster.num_workers, dfs_file.size_bytes,
                dfs_file.num_records, job.num_partitions,
            )
        if initial_state is None:
            initial_state = algorithm.initial_state(job.dataset)
        state = dict(initial_state)

        metrics = JobMetrics()
        metrics.times.startup = cost.job_startup_s
        if charge_preprocess:
            metrics.times.startup += preprocess_s
        stepper = self._stepper(
            job, parts, state, job.workset, job.workset_threshold,
            capture_chunks, fault_context,
        )
        per_iteration: List[IterationStats] = []
        converged = self._converge(
            stepper, metrics, per_iteration, job.max_iterations, job.epsilon
        )
        return IterMRResult(
            state=stepper.state,
            iterations=len(per_iteration),
            converged=converged,
            per_iteration=per_iteration,
            metrics=metrics,
            preprocess_s=preprocess_s,
            parts=parts,
        ), stepper

    def _stepper(
        self, job: IterativeJob, parts: PartitionedStructure, state: Dict[Any, Any],
        workset: Optional[bool], threshold: Optional[float] = None,
        capture_chunks: bool = False, fault_context: Optional[Any] = None,
    ) -> Any:
        """Full sweeps or workset supersteps — decided here and only here.

        ``workset`` is the caller's knob (``IterativeJob.workset`` or
        ``I2MROptions.workset``); ``None`` defers to ``REPRO_WORKSET``.
        A workset run (Ewen et al.) primes its caches with one full sweep,
        then re-maps only the dirty frontier (filtered by ``threshold``)
        and is exhausted when it drains — the exact fixpoint.  It keeps no
        MRBGraph chunks, so ``capture_chunks`` takes the bulk stepper, and
        ``fault_context`` is a full-sweep-only feature it ignores.
        """
        backend = self.backend_for(job)
        if workset is None:
            workset = config.DEFAULT_WORKSET
        if workset and not capture_chunks:
            # Imported late: the workset module pulls in repro.inciter.cpc,
            # whose package imports this module.
            from repro.iterative.workset import WorksetRunner

            return WorksetRunner(
                job.algorithm, parts, state, self.cluster,
                executor=backend, threshold=threshold,
            )
        return FullSweepStepper(
            job.algorithm, parts, state, self.cluster, backend,
            capture_chunks, fault_context,
        )

    @staticmethod
    def _converge(
        stepper: Any, metrics: JobMetrics, per_iteration: List[IterationStats],
        budget: int, epsilon: Optional[float],
        history: Optional[List[Dict[Any, Any]]] = None,
    ) -> bool:
        """The convergence loop: step until epsilon, exhaustion or budget.

        Iterations are numbered from ``len(per_iteration)``, so a fallback
        taking over after fine-grain iteration *k* continues with *k + 1*
        and what is left of ``budget``.  Each record is appended, its
        times added to ``metrics`` and, given a ``history``, a snapshot of
        the state kept.  Returns whether the run converged: the summed
        state change fell to ``epsilon`` or the stepper has nothing left
        to do.
        """
        converged = False
        for iteration in range(len(per_iteration), budget):
            stats = stepper.advance(iteration)
            metrics.times.add(stats.times)
            per_iteration.append(stats)
            if history is not None:
                history.append(dict(stepper.state))
            if stepper.exhausted or (
                epsilon is not None and stats.total_difference <= epsilon
            ):
                converged = True
                break
        metrics.counters.merge(stepper.counters)
        return converged
