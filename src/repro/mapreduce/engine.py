"""The vanilla (Hadoop-like) MapReduce execution engine.

The engine executes real user map/reduce functions over real records and
charges simulated time per the cluster cost model:

- **map**: read the input block (local disk if the task was scheduled on a
  replica holder, network otherwise), parse it, invoke ``map`` per record,
  partition + sort the intermediate output, and spill it to local disk;
- **shuffle**: each reduce task fetches its partition from every map task
  (free of network cost when map and reduce ran on the same worker);
- **sort**: reduce-side merge of the sorted map spills;
- **reduce**: invoke ``reduce`` per group and write the output to the DFS.

The phases are exposed individually (``map_phase`` / ``reduce_phase``) so
the incremental and iterative engines can recompose them.

Task batches are dispatched through a pluggable host execution backend
(:mod:`repro.execution`): each map/reduce task is a self-contained,
picklable payload executed by a module-level function, and per-task
results (partitions, counters, byte counts) are merged deterministically
in task-index order after the batch completes.  Simulated cluster time
is computed from the merged results in the parent, so it is identical
whether tasks ran serially, on threads or on processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.metrics import Counters, JobMetrics, StageTimes
from repro.cluster.scheduler import TaskSpec, schedule_stage
from repro.common.errors import PartitionOutOfRange
from repro.common.kvpair import (
    group_records,
    group_sorted,
    group_values,
    merge_sorted_runs,
    sort_records,
)
from repro.common.sizeof import (
    grouped_records_size,
    grouped_values_size,
    record_size,
    records_size,
)
from repro.dfs.filesystem import Block, DistributedFS
from repro.execution import ExecutionBackend, ExecutorSelector, ExecutorSpec
from repro.mapreduce.api import Context, Mapper, Partitioner, Reducer
from repro.mapreduce.job import JobConf, JobResult, MapperFactory, ReducerFactory

_ITEM1 = itemgetter(1)


#: A source of map input: records plus their physical placement metadata.
@dataclass
class MapInputSplit:
    """One map task's input: a record list plus placement/size metadata."""

    records: Sequence[Tuple[Any, Any]]
    size_bytes: int
    locations: Sequence[int] = ()
    parse_needed: bool = True

    @classmethod
    def from_block(cls, block: Block) -> "MapInputSplit":
        """Build a split covering one DFS block."""
        return cls(
            records=block.records,
            size_bytes=block.size_bytes,
            locations=block.locations,
        )


@dataclass
class MapTaskOutput:
    """Intermediate state produced by one map task."""

    task_index: int
    worker: int
    #: partition index -> key-sorted list of (K2, V2), or, from a fold
    #: spill, a first-seen-ordered ``K2 -> [V2]`` dict (see :func:`sorted_run`)
    partitions: Dict[int, Any]
    partition_bytes: Dict[int, int]
    cost_s: float


@dataclass
class MapPhaseResult:
    """Aggregate result of the map phase."""

    tasks: List[MapTaskOutput]
    elapsed_s: float
    counters: Counters


@dataclass
class ReducePhaseResult:
    """Aggregate result of shuffle + sort + reduce."""

    outputs: Dict[int, List[Tuple[Any, Any]]]
    shuffle_s: float
    sort_s: float
    reduce_s: float
    counters: Counters


# ---------------------------------------------------------------------- #
# task payloads + task functions (module-level so they pickle)           #
# ---------------------------------------------------------------------- #


@dataclass
class MapTaskPayload:
    """Everything one map task needs, free of engine references."""

    task_index: int
    mapper_factory: MapperFactory
    records: Sequence[Tuple[Any, Any]]
    size_bytes: int
    num_reducers: int
    partitioner: Partitioner
    combiner_factory: Optional[ReducerFactory] = None
    #: spill ``K2 -> [V2]`` groups unsorted when the keys allow it (see
    #: :func:`partition_and_sort`); set by engines whose reduce side folds.
    fold: bool = False


@dataclass
class MapTaskRun:
    """What one map task hands back to the engine."""

    task_index: int
    partitions: Dict[int, Any]
    partition_bytes: Dict[int, int]
    counters: Counters
    #: pre-combiner emission count (what the map-side sort is charged on).
    emitted_records: int
    cpu_weight: float


def execute_map_task(payload: MapTaskPayload) -> MapTaskRun:
    """Run one map task: map every record, partition + sort + combine.

    Pure function of its payload — no engine or cluster state — so any
    :class:`repro.execution.ExecutionBackend` may run it anywhere.
    """
    counters = Counters()
    mapper = payload.mapper_factory()
    ctx = Context()
    mapper.setup(ctx)
    for key, value in payload.records:
        mapper.map(key, value, ctx)
    mapper.cleanup(ctx)
    emitted = ctx.take()
    counters.merge(ctx.counters)
    counters.add("map_input_records", len(payload.records))
    counters.add("map_input_bytes", payload.size_bytes)
    counters.add("map_output_records", len(emitted))

    partitions, partition_bytes = partition_and_sort(
        emitted,
        payload.num_reducers,
        payload.partitioner,
        payload.combiner_factory,
        counters,
        payload.fold,
    )
    counters.add("map_spill_bytes", sum(partition_bytes.values()))
    return MapTaskRun(
        task_index=payload.task_index,
        partitions=partitions,
        partition_bytes=partition_bytes,
        counters=counters,
        emitted_records=len(emitted),
        cpu_weight=mapper.cpu_weight,
    )


def partition_and_sort(
    emitted: List[Tuple[Any, Any]],
    num_reducers: int,
    partitioner: Partitioner,
    combiner_factory: Optional[ReducerFactory],
    counters: Counters,
    fold: bool = False,
) -> Tuple[Dict[int, Any], Dict[int, int]]:
    """Map-side spill: partition, key-sort and (optionally) combine.

    Partitioning, ordering and key sizing depend on the key alone, so they
    run once per *unit*: a ``(key, [records])`` group per distinct key
    when :func:`group_records` proves grouping lossless, else each record
    on its own.  Either way a partition's units are stable-sorted by key
    and flatten to the same ``(key, value)`` list, values of one key in
    arrival order and partitions in first-seen order.

    With ``fold`` and no combiner, when :func:`group_values` can group the
    keys, each partition is instead the unsorted ``K2 -> [V2]`` dict of its
    keys (first-seen order, values in arrival order) for a reduce side
    that folds rather than merges; its bytes are the same.

    Raises:
        PartitionOutOfRange: the partitioner left ``range(num_reducers)``.
    """
    if fold and combiner_factory is None:
        value_groups = group_values(emitted)
        if value_groups is not None:
            return _partition_groups(value_groups, num_reducers, partitioner)
    groups = group_records(emitted)
    units_by_part: Dict[int, list] = {}
    for unit in emitted if groups is None else groups.items():
        units_by_part.setdefault(partitioner(unit[0], num_reducers), []).append(unit)
    for part, units in units_by_part.items():
        if part not in range(num_reducers):
            raise PartitionOutOfRange(units[0][0], part, num_reducers)

    partitions: Dict[int, List[Tuple[Any, Any]]] = {}
    partition_bytes: Dict[int, int] = {}
    for part, units in units_by_part.items():
        units = sort_records(units)
        if groups is None:
            pairs = units
        else:
            pairs = list(chain.from_iterable(map(_ITEM1, units)))
        if combiner_factory is not None:
            pairs = _apply_combiner(combiner_factory, pairs, counters)
        if groups is None or combiner_factory is not None:
            partition_bytes[part] = records_size(pairs)
        else:
            partition_bytes[part] = grouped_records_size(units)
        partitions[part] = pairs
    return partitions, partition_bytes


def _partition_groups(
    groups: Dict[Any, List[Any]],
    num_reducers: int,
    partitioner: Partitioner,
) -> Tuple[Dict[int, Dict[Any, List[Any]]], Dict[int, int]]:
    """The fold spill: partition each distinct key once, sort nothing."""
    partitions: Dict[int, Dict[Any, List[Any]]] = {}
    for key, values in groups.items():
        part = partitioner(key, num_reducers)
        part_groups = partitions.get(part)
        if part_groups is None:
            part_groups = partitions[part] = {}
        part_groups[key] = values
    for part, part_groups in partitions.items():
        if part not in range(num_reducers):
            raise PartitionOutOfRange(next(iter(part_groups)), part, num_reducers)
    partition_bytes = {
        part: grouped_values_size(part_groups) for part, part_groups in partitions.items()
    }
    return partitions, partition_bytes


def sorted_run(partition: Any) -> List[Tuple[Any, Any]]:
    """A spilled partition as the key-sorted ``(K2, V2)`` run of a sort spill.

    Sort-spill runs pass through; a fold spill's ``K2 -> [V2]`` dict is
    key-sorted and flattened, exactly the run :func:`partition_and_sort`
    builds without ``fold``.
    """
    if type(partition) is not dict:
        return partition
    return [(key, value) for key, values in sort_records(partition.items()) for value in values]


def _apply_combiner(
    combiner_factory: ReducerFactory,
    pairs: List[Tuple[Any, Any]],
    counters: Counters,
) -> List[Tuple[Any, Any]]:
    combiner = combiner_factory()
    ctx = Context()
    combiner.setup(ctx)
    for key, values in group_sorted(pairs):
        combiner.reduce(key, values, ctx)
    combiner.cleanup(ctx)
    combined = ctx.take()
    combined = sort_records(combined)
    counters.add("combine_input_records", len(pairs))
    counters.add("combine_output_records", len(combined))
    return combined


@dataclass
class ReduceTaskPayload:
    """Everything one reduce task needs after the shuffle was planned."""

    partition: int
    runs: List[List[Tuple[Any, Any]]]
    reducer_factory: ReducerFactory
    #: optional per-group callback; forces in-process serial execution
    #: because it mutates caller state (see :meth:`reduce_phase`).
    group_sink: Optional[Callable[[int, Any, List[Any]], None]] = None


@dataclass
class ReduceTaskRun:
    """What one reduce task hands back to the engine."""

    partition: int
    emitted: List[Tuple[Any, Any]]
    counters: Counters
    merged_records: int
    out_bytes: int
    cpu_weight: float


def execute_reduce_task(payload: ReduceTaskPayload) -> ReduceTaskRun:
    """Run one reduce task: merge sorted runs, group, reduce."""
    counters = Counters()
    merged = merge_sorted_runs(payload.runs)
    counters.add("reduce_input_records", len(merged))

    reducer = payload.reducer_factory()
    ctx = Context()
    reducer.setup(ctx)
    groups = 0
    for key, values in group_sorted(merged):
        groups += 1
        if payload.group_sink is not None:
            payload.group_sink(payload.partition, key, values)
        reducer.reduce(key, values, ctx)
    reducer.cleanup(ctx)
    emitted = ctx.take()
    counters.merge(ctx.counters)
    counters.add("reduce_input_groups", groups)
    counters.add("reduce_output_records", len(emitted))
    out_bytes = sum(record_size(k, v) for k, v in emitted)
    counters.add("reduce_output_bytes", out_bytes)
    return ReduceTaskRun(
        partition=payload.partition,
        emitted=emitted,
        counters=counters,
        merged_records=len(merged),
        out_bytes=out_bytes,
        cpu_weight=reducer.cpu_weight,
    )


class MapReduceEngine:
    """Runs :class:`JobConf` jobs on a simulated cluster.

    Args:
        executor: engine-wide default host execution backend (name,
            backend instance, or ``None`` for the library default);
            individual jobs override it via ``JobConf.executor``.
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

    def backend_for(self, jobconf: JobConf) -> ExecutionBackend:
        """The resilient execution backend this job's task batches run on
        (:meth:`repro.execution.ExecutorSelector.for_job`)."""
        return self.executors.for_job(jobconf)

    def close(self) -> None:
        """Shut down any host worker pools the engine created."""
        self.executors.close()

    # ------------------------------------------------------------------ #
    # public entry point                                                 #
    # ------------------------------------------------------------------ #

    def run(self, jobconf: JobConf, charge_startup: bool = True) -> JobResult:
        """Execute one MapReduce job and write its output to the DFS."""
        jobconf.validate()
        splits = self.splits_for_inputs(jobconf.inputs)
        map_result = self.map_phase(jobconf, splits)
        reduce_result = self.reduce_phase(jobconf, map_result)

        output_records: List[Tuple[Any, Any]] = []
        for partition in sorted(reduce_result.outputs):
            output_records.extend(reduce_result.outputs[partition])
        self.dfs.write(jobconf.output, output_records, overwrite=True)

        metrics = JobMetrics()
        if charge_startup:
            metrics.times.startup = self.cluster.cost_model.job_startup_s
        metrics.times.map = map_result.elapsed_s
        metrics.times.shuffle = reduce_result.shuffle_s
        metrics.times.sort = reduce_result.sort_s
        metrics.times.reduce = reduce_result.reduce_s
        metrics.counters.merge(map_result.counters)
        metrics.counters.merge(reduce_result.counters)
        return JobResult(output=jobconf.output, metrics=metrics)

    # ------------------------------------------------------------------ #
    # map phase                                                          #
    # ------------------------------------------------------------------ #

    def splits_for_inputs(self, inputs: Sequence[str]) -> List[MapInputSplit]:
        """One map input split per DFS block of the input paths."""
        splits: List[MapInputSplit] = []
        for path in inputs:
            for block in self.dfs.file(path).blocks:
                splits.append(MapInputSplit.from_block(block))
        return splits

    def map_phase(
        self,
        jobconf: JobConf,
        splits: Sequence[MapInputSplit],
        fold: bool = False,
    ) -> MapPhaseResult:
        """Run one map task per split; returns sorted partitioned output.

        Tasks execute through the job's execution backend; results are
        merged and costed in task-index order, so the returned phase
        result is identical across backends.  ``fold`` asks for fold
        spills (:func:`partition_and_sort`); the simulated cost is the same.
        """
        cost = self.cluster.cost_model
        counters = Counters()
        raw_tasks: List[MapTaskOutput] = []
        specs: List[TaskSpec] = []

        payloads = [
            MapTaskPayload(
                task_index=index,
                mapper_factory=jobconf.mapper,
                records=split.records,
                size_bytes=split.size_bytes,
                num_reducers=jobconf.num_reducers,
                partitioner=jobconf.partitioner,
                combiner_factory=jobconf.combiner,
                fold=fold,
            )
            for index, split in enumerate(splits)
        ]
        runs = self.backend_for(jobconf).run_tasks(execute_map_task, payloads)

        for run in sorted(runs, key=lambda r: r.task_index):
            index = run.task_index
            split = splits[index]
            counters.merge(run.counters)

            task_cost = cost.disk_read_time(split.size_bytes)
            if split.parse_needed:
                task_cost += cost.parse_time(split.size_bytes)
            task_cost += cost.cpu_time(len(split.records), run.cpu_weight)
            task_cost += cost.sort_time(run.emitted_records)
            spill_bytes = sum(run.partition_bytes.values())
            task_cost += cost.disk_write_time(spill_bytes)

            raw_tasks.append(
                MapTaskOutput(
                    task_index=index,
                    worker=-1,
                    partitions=run.partitions,
                    partition_bytes=run.partition_bytes,
                    cost_s=task_cost,
                )
            )
            specs.append(
                TaskSpec(
                    task_id=str(index),
                    cost_s=task_cost,
                    preferred_workers=list(split.locations),
                )
            )

        schedule = self.cluster.run_tasks(specs)
        counters.add("map_locality_misses", schedule.locality_misses)

        # Non-local tasks pay a network transfer of their input on top of
        # the locally-computed cost.
        loads = list(schedule.worker_loads)
        for index, split in enumerate(splits):
            worker = schedule.assignment[str(index)]
            raw_tasks[index].worker = worker
            if split.locations and worker not in split.locations:
                extra = cost.net_time(split.size_bytes)
                loads[worker] += extra
                counters.add("map_remote_input_bytes", split.size_bytes)
        elapsed = max(loads) if loads else 0.0
        return MapPhaseResult(tasks=raw_tasks, elapsed_s=elapsed, counters=counters)

    # ------------------------------------------------------------------ #
    # shuffle + sort + reduce                                            #
    # ------------------------------------------------------------------ #

    def reduce_worker(self, partition: int) -> int:
        """Deterministic placement of reduce task ``partition``."""
        return partition % self.cluster.num_workers

    def reduce_phase(
        self,
        jobconf: JobConf,
        map_result: MapPhaseResult,
        reducer_override: Optional[Callable[[], Reducer]] = None,
        group_sink: Optional[Callable[[int, Any, List[Any]], None]] = None,
        cached_runs: Optional[Dict[int, List[Tuple[List[Tuple[Any, Any]], int]]]] = None,
    ) -> ReducePhaseResult:
        """Shuffle, merge and reduce the map phase's output.

        Args:
            reducer_override: substitute reducer factory (used by engines
                that wrap the user reducer).
            group_sink: optional callback invoked per ``(partition, key,
                values)`` group *before* the reducer runs; the incremental
                engine uses it to persist MRBGraph chunks.
            cached_runs: per-partition sorted runs already materialized on
                the reduce worker's local disk (HaLoop's reducer-input
                cache); charged as local reads instead of shuffle traffic.

        Reduce tasks are dispatched through the job's execution backend
        only when they are side-effect free; a ``group_sink`` or a
        ``reducer_override`` typically mutates caller-owned state (MRBG
        stores, preserved-output dicts), so those runs stay on the
        calling thread in partition order.  Either way, results are
        merged in partition order, keeping simulated times and counters
        backend-independent.
        """
        cost = self.cluster.cost_model
        counters = Counters()
        reducer_factory = reducer_override or jobconf.reducer

        shuffle_loads = [0.0] * self.cluster.num_workers
        sort_loads = [0.0] * self.cluster.num_workers
        reduce_loads = [0.0] * self.cluster.num_workers
        outputs: Dict[int, List[Tuple[Any, Any]]] = {}

        payloads: List[ReduceTaskPayload] = []
        for part in range(jobconf.num_reducers):
            worker = self.reduce_worker(part)
            runs: List[List[Tuple[Any, Any]]] = []
            fetch_s = 0.0
            total_bytes = 0
            for task in map_result.tasks:
                pairs = task.partitions.get(part)
                if not pairs:
                    continue
                nbytes = task.partition_bytes.get(part, 0)
                total_bytes += nbytes
                if task.worker == worker:
                    fetch_s += cost.disk_read_time(nbytes)
                else:
                    fetch_s += cost.net_time(nbytes)
                    counters.add("shuffle_net_bytes", nbytes)
                runs.append(pairs)
            if cached_runs is not None:
                for run, nbytes in cached_runs.get(part, []):
                    runs.append(run)
                    total_bytes += nbytes
                    fetch_s += cost.disk_read_time(nbytes)
                    counters.add("reducer_cache_bytes", nbytes)
            counters.add("shuffle_bytes", total_bytes)
            shuffle_loads[worker] += fetch_s
            payloads.append(
                ReduceTaskPayload(
                    partition=part,
                    runs=runs,
                    reducer_factory=reducer_factory,
                    group_sink=group_sink,
                )
            )

        parallel_safe = group_sink is None and reducer_override is None
        if parallel_safe:
            runs_out = self.backend_for(jobconf).run_tasks(
                execute_reduce_task, payloads
            )
        else:
            runs_out = [execute_reduce_task(payload) for payload in payloads]

        for run in sorted(runs_out, key=lambda r: r.partition):
            worker = self.reduce_worker(run.partition)
            sort_loads[worker] += cost.sort_time(run.merged_records)
            counters.merge(run.counters)
            reduce_loads[worker] += cost.cpu_time(run.merged_records, run.cpu_weight)
            reduce_loads[worker] += cost.disk_write_time(run.out_bytes)
            if self.dfs.replication > 1:
                reduce_loads[worker] += cost.net_time(
                    run.out_bytes * (self.dfs.replication - 1)
                )
            outputs[run.partition] = run.emitted

        return ReducePhaseResult(
            outputs=outputs,
            shuffle_s=max(shuffle_loads),
            sort_s=max(sort_loads),
            reduce_s=max(reduce_loads),
            counters=counters,
        )
