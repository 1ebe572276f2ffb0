"""Fine-grain incremental processing engine for one-step jobs (§3).

``run_initial`` executes a normal MapReduce job while preserving the
MRBGraph: the globally unique ``MK`` is generated per Map instance and
shipped with every intermediate kv-pair, and each Reduce task saves its
``(K2, MK, V2)`` chunks into a local MRBG-Store.

``run_incremental`` consumes a delta input (``+``/``-`` marked records):
the Map function runs only over delta records, the resulting delta
MRBGraph is shuffled, merged against the preserved MRBG-Store (index
nested-loop join with read-window optimization), and the Reduce function
re-runs only for the affected K2s.  The refreshed output is logically
identical to recomputing from scratch — the invariant the test suite
checks on every workload.

For accumulator Reduce functions (§3.5) the engine preserves only the
Reduce outputs and folds insert-only deltas in with ``accumulate``.
"""

from __future__ import annotations

from dataclasses import replace
from functools import reduce
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.metrics import Counters, JobMetrics
from repro.common.errors import InvalidJobConf, JobError
from repro.common.hashing import map_key
from repro.common.kvpair import Op, group_sorted, keys_groupable, merge_sorted_runs
from repro.common.sizeof import columns_size, record_size
from repro.incremental.api import AccumulatorReducer
from repro.incremental.state import PreservedJobState
from repro.mapreduce.api import Context, Mapper, Reducer
from repro.mapreduce.engine import MapReduceEngine, MapTaskOutput, sorted_run
from repro.mapreduce.job import JobConf, JobResult
from repro.mrbgraph.graph import DeltaEdge, Edge


class WrappedMapperFactory:
    """Picklable factory producing ``wrapper_cls(inner_factory())``.

    The engine wraps user mappers per task; using a module-level factory
    class (instead of a lambda) keeps the map payloads picklable, so the
    process execution backend can ship them to worker processes whenever
    the user's own factory pickles.
    """

    def __init__(self, wrapper_cls: type, inner_factory: Callable[[], Mapper]) -> None:
        self.wrapper_cls = wrapper_cls
        self.inner_factory = inner_factory

    def __call__(self) -> Mapper:
        return self.wrapper_cls(self.inner_factory())


class _MKTaggingMapper(Mapper):
    """Wraps a user mapper, tagging each emission with the instance MK."""

    def __init__(self, inner: Mapper) -> None:
        self.inner = inner
        self.cpu_weight = inner.cpu_weight

    def setup(self, ctx: Context) -> None:
        self.inner.setup(ctx)

    def map(self, key: Any, value: Any, ctx: Context) -> None:
        before = len(ctx.emitted)
        self.inner.map(key, value, ctx)
        emitted = ctx.emitted
        # A Map instance may emit several pairs to the same K2; (K2, MK)
        # must stay unique per edge, so repeated targets get an occurrence
        # index (re-derived identically when the record is later deleted).
        occurrence: Dict[Any, int] = {}
        for idx in range(before, len(emitted)):
            k2, v2 = emitted[idx]
            dup = occurrence.get(k2, 0)
            occurrence[k2] = dup + 1
            emitted[idx] = (k2, (map_key(key, value, dup), v2))

    def cleanup(self, ctx: Context) -> None:
        self.inner.cleanup(ctx)


class _DeltaMapper(Mapper):
    """Runs the user map over delta records, emitting tagged delta edges.

    Insertions produce ``(K2, (MK, V2, '+'))``; deletions re-run the map
    on the *old* record and produce ``(K2, (MK, '-'))`` markers — "the
    engine replaces the V2s of the deleted MRBGraph edges with '-'"
    (§3.3).
    """

    def __init__(self, inner: Mapper) -> None:
        self.inner = inner
        self.cpu_weight = inner.cpu_weight

    def setup(self, ctx: Context) -> None:
        self.inner.setup(ctx)

    def map(self, key: Any, wrapped: Any, ctx: Context) -> None:
        value, op = wrapped
        before = len(ctx.emitted)
        self.inner.map(key, value, ctx)
        emitted = ctx.emitted
        occurrence: Dict[Any, int] = {}
        if op == Op.INSERT.value:
            for idx in range(before, len(emitted)):
                k2, v2 = emitted[idx]
                dup = occurrence.get(k2, 0)
                occurrence[k2] = dup + 1
                emitted[idx] = (k2, (map_key(key, value, dup), v2, "+"))
        else:
            for idx in range(before, len(emitted)):
                k2, _ = emitted[idx]
                dup = occurrence.get(k2, 0)
                occurrence[k2] = dup + 1
                emitted[idx] = (k2, (map_key(key, value, dup), None, "-"))

    def cleanup(self, ctx: Context) -> None:
        self.inner.cleanup(ctx)


class _PreservingReducer(Reducer):
    """Unwraps ``(MK, V2)`` values and captures per-instance outputs."""

    def __init__(self, inner: Reducer, outputs: Dict[Any, List[Tuple[Any, Any]]]) -> None:
        self.inner = inner
        self.outputs = outputs
        self.cpu_weight = inner.cpu_weight

    def setup(self, ctx: Context) -> None:
        self.inner.setup(ctx)

    def reduce(self, key: Any, values: List[Any], ctx: Context) -> None:
        unwrapped = [v2 for _, v2 in values]
        before = len(ctx.emitted)
        self.inner.reduce(key, unwrapped, ctx)
        self.outputs[key] = list(ctx.emitted[before:])

    def cleanup(self, ctx: Context) -> None:
        self.inner.cleanup(ctx)


class _AccumCapturingReducer(Reducer):
    """Captures accumulator-Reduce outputs keyed by output key (§3.5)."""

    def __init__(self, inner: Reducer, acc_outputs: Dict[Any, Any]) -> None:
        self.inner = inner
        self.acc_outputs = acc_outputs
        self.cpu_weight = inner.cpu_weight

    def setup(self, ctx: Context) -> None:
        self.inner.setup(ctx)

    def reduce(self, key: Any, values: List[Any], ctx: Context) -> None:
        before = len(ctx.emitted)
        self.inner.reduce(key, values, ctx)
        for k3, v3 in ctx.emitted[before:]:
            self.acc_outputs[k3] = v3

    def cleanup(self, ctx: Context) -> None:
        self.inner.cleanup(ctx)


class IncrMREngine(MapReduceEngine):
    """The §3 fine-grain incremental processing engine."""

    # ------------------------------------------------------------------ #
    # initial run                                                        #
    # ------------------------------------------------------------------ #

    def run_initial(
        self,
        jobconf: JobConf,
        state: Optional[PreservedJobState] = None,
        accumulator: bool = False,
        num_shards: Optional[int] = None,
    ) -> Tuple[JobResult, PreservedJobState]:
        """Run job A, preserving fine-grain state for future deltas.

        ``num_shards`` splits each reduce partition's MRBG-Store into
        that many parallel-maintained shards (None = the ``REPRO_SHARDS``
        default); pass an explicit ``state`` to control sharding fully.
        """
        jobconf.validate()
        if state is None:
            state = PreservedJobState(
                num_reducers=jobconf.num_reducers,
                cost_model=self.cluster.cost_model.unscaled(),
                accumulator=accumulator,
                num_shards=num_shards,
                store_executor=self.backend_for(jobconf),
                num_workers=self.cluster.num_workers,
            )
        if accumulator and not isinstance(jobconf.reducer(), AccumulatorReducer):
            raise InvalidJobConf("accumulator mode requires an AccumulatorReducer")
        if accumulator:
            return self._run_initial_accumulator(jobconf, state), state
        return self._run_initial_finegrain(jobconf, state), state

    def _run_initial_finegrain(
        self, jobconf: JobConf, state: PreservedJobState
    ) -> JobResult:
        wrapped = replace(
            jobconf,
            mapper=WrappedMapperFactory(_MKTaggingMapper, jobconf.mapper),
            combiner=None,  # combiners would merge edges before preservation
        )
        splits = self.splits_for_inputs(jobconf.inputs)
        map_result = self.map_phase(wrapped, splits)

        open_sessions: set = set()

        def sink(part: int, k2: Any, values: List[Any]) -> None:
            store = state.store_for(part)
            if part not in open_sessions:
                store.begin_merge([])
                open_sessions.add(part)
            store.put_chunk(k2, [Edge(mk, v2) for mk, v2 in values])

        user_reducer = jobconf.reducer
        reduce_result = self.reduce_phase(
            wrapped,
            map_result,
            reducer_override=lambda: _PreservingReducer(user_reducer(), state.outputs),
            group_sink=sink,
        )
        for part in open_sessions:
            store = state.store_for(part)
            store.end_merge()
            store.save_index()

        self.dfs.write(jobconf.output, state.result_records(), overwrite=True)

        metrics = JobMetrics()
        metrics.times.startup = self.cluster.cost_model.job_startup_s
        metrics.times.map = map_result.elapsed_s
        metrics.times.shuffle = reduce_result.shuffle_s
        metrics.times.sort = reduce_result.sort_s
        store_total = state.store_metrics()
        scale = self.cluster.cost_model.data_scale
        metrics.times.reduce = reduce_result.reduce_s + store_total.write_time_s * scale
        metrics.counters.merge(map_result.counters)
        metrics.counters.merge(reduce_result.counters)
        metrics.counters.add("mrbg_bytes_written", store_total.bytes_written)
        return JobResult(output=jobconf.output, metrics=metrics)

    def _run_initial_accumulator(
        self, jobconf: JobConf, state: PreservedJobState
    ) -> JobResult:
        splits = self.splits_for_inputs(jobconf.inputs)
        map_result = self.map_phase(jobconf, splits)
        user_reducer = jobconf.reducer
        reduce_result = self.reduce_phase(
            jobconf,
            map_result,
            reducer_override=lambda: _AccumCapturingReducer(
                user_reducer(), state.acc_outputs
            ),
        )
        self.dfs.write(jobconf.output, state.result_records(), overwrite=True)
        metrics = JobMetrics()
        metrics.times.startup = self.cluster.cost_model.job_startup_s
        metrics.times.map = map_result.elapsed_s
        metrics.times.shuffle = reduce_result.shuffle_s
        metrics.times.sort = reduce_result.sort_s
        metrics.times.reduce = reduce_result.reduce_s
        metrics.counters.merge(map_result.counters)
        metrics.counters.merge(reduce_result.counters)
        return JobResult(output=jobconf.output, metrics=metrics)

    # ------------------------------------------------------------------ #
    # incremental run                                                    #
    # ------------------------------------------------------------------ #

    def run_incremental(
        self,
        jobconf: JobConf,
        delta_path: str,
        state: PreservedJobState,
    ) -> JobResult:
        """Run job A' incrementally from A's preserved state.

        ``delta_path`` is a DFS file of ``(K1, (V1, '+'|'-'))`` records.
        """
        jobconf.validate()
        if state.num_reducers != jobconf.num_reducers:
            raise InvalidJobConf(
                "num_reducers must match the preserved state "
                f"({state.num_reducers} != {jobconf.num_reducers})"
            )
        if state.accumulator:
            return self._run_incremental_accumulator(jobconf, delta_path, state)
        return self._run_incremental_finegrain(jobconf, delta_path, state)

    def _run_incremental_finegrain(
        self,
        jobconf: JobConf,
        delta_path: str,
        state: PreservedJobState,
    ) -> JobResult:
        cost = self.cluster.cost_model
        wrapped = replace(
            jobconf,
            mapper=WrappedMapperFactory(_DeltaMapper, jobconf.mapper),
            combiner=None,
            inputs=[delta_path],
        )
        splits = self.splits_for_inputs([delta_path])
        map_result = self.map_phase(wrapped, splits)

        metrics = JobMetrics()
        metrics.times.startup = cost.job_startup_s
        metrics.times.map = map_result.elapsed_s
        metrics.counters.merge(map_result.counters)

        workers = self.cluster.num_workers
        shuffle_loads = [0.0] * workers
        sort_loads = [0.0] * workers
        reduce_loads = [0.0] * workers
        counters = metrics.counters

        store_snaps = state.snapshot_store_metrics()
        changed_output_bytes = 0

        for part in range(jobconf.num_reducers):
            worker = self.reduce_worker(part)
            runs: List[List[Tuple[Any, Any]]] = []
            fetch_s = 0.0
            for task in map_result.tasks:
                pairs = task.partitions.get(part)
                if not pairs:
                    continue
                nbytes = task.partition_bytes.get(part, 0)
                if task.worker == worker:
                    fetch_s += cost.disk_read_time(nbytes)
                else:
                    fetch_s += cost.net_time(nbytes)
                    counters.add("shuffle_net_bytes", nbytes)
                counters.add("shuffle_bytes", nbytes)
                runs.append(pairs)
            shuffle_loads[worker] += fetch_s
            if not runs:
                continue

            merged = merge_sorted_runs(runs)
            sort_loads[worker] += cost.sort_time(len(merged))
            counters.add("delta_edges", len(merged))

            delta_groups: List[Tuple[Any, List[DeltaEdge]]] = []
            for k2, values in group_sorted(merged):
                delta_groups.append(
                    (k2, [DeltaEdge(mk, v2, Op(op)) for mk, v2, op in values])
                )
            counters.add("affected_reduce_instances", len(delta_groups))

            store = state.store_for(part)
            reducer = jobconf.reducer()
            ctx = Context()
            reducer.setup(ctx)
            values_processed = 0
            for k2, entries in store.merge_delta(delta_groups):
                if entries:
                    before = len(ctx.emitted)
                    reducer.reduce(k2, list(entries.values), ctx)
                    group_out = list(ctx.emitted[before:])
                    state.outputs[k2] = group_out
                    values_processed += len(entries)
                    changed_output_bytes += sum(
                        record_size(k3, v3) for k3, v3 in group_out
                    )
                else:
                    state.outputs.pop(k2, None)
            reducer.cleanup(ctx)
            store.save_index()
            reduce_loads[worker] += cost.cpu_time(values_processed, reducer.cpu_weight)

        store_delta = state.store_metrics_since(store_snaps)
        metrics.times.shuffle = max(shuffle_loads)
        metrics.times.sort = max(sort_loads)
        metrics.times.reduce = (
            max(reduce_loads)
            + (store_delta.read_time_s + store_delta.write_time_s) * cost.data_scale
            + cost.disk_write_time(changed_output_bytes)
        )
        counters.add("mrbg_reads", store_delta.io_reads)
        counters.add("mrbg_bytes_read", store_delta.bytes_read)
        counters.add("mrbg_bytes_written", store_delta.bytes_written)
        counters.add("changed_output_bytes", changed_output_bytes)

        self.dfs.write(jobconf.output, state.result_records(), overwrite=True)
        return JobResult(output=jobconf.output, metrics=metrics)

    def _run_incremental_accumulator(
        self,
        jobconf: JobConf,
        delta_path: str,
        state: PreservedJobState,
    ) -> JobResult:
        cost = self.cluster.cost_model
        reducer_probe = jobconf.reducer()
        if not isinstance(reducer_probe, AccumulatorReducer):
            raise InvalidJobConf("preserved state is accumulator mode")
        # Strip the op marker so the user mapper sees plain records; a
        # delete fails the job here, before any state is touched.
        plain_records: List[Tuple[Any, Any]] = []
        insert_tag = Op.INSERT.value
        for k1, (v1, op) in self.dfs.read(delta_path):
            if op != insert_tag:
                raise JobError(
                    "accumulator incremental processing requires an "
                    "insert-only delta (§3.5)"
                )
            plain_records.append((k1, v1))
        staging = f"{delta_path}.plain"
        self.dfs.write(staging, plain_records, overwrite=True)
        splits = self.splits_for_inputs([staging])
        delta_conf = replace(jobconf, inputs=[staging])
        map_result = self.map_phase(delta_conf, splits, fold=True)

        metrics = JobMetrics()
        metrics.times.startup = cost.job_startup_s
        metrics.times.map = map_result.elapsed_s
        metrics.counters.merge(map_result.counters)

        workers = self.cluster.num_workers
        shuffle_loads = [0.0] * workers
        sort_loads = [0.0] * workers
        reduce_loads = [0.0] * workers
        changed_output_bytes = 0
        fold = _foldable(map_result.tasks)

        for part in range(jobconf.num_reducers):
            worker = self.reduce_worker(part)
            runs: List[Any] = []
            fetch_s = 0.0
            for task in map_result.tasks:
                pairs = task.partitions.get(part)
                if not pairs:
                    continue
                nbytes = task.partition_bytes.get(part, 0)
                if task.worker == worker:
                    fetch_s += cost.disk_read_time(nbytes)
                else:
                    fetch_s += cost.net_time(nbytes)
                    metrics.counters.add("shuffle_net_bytes", nbytes)
                metrics.counters.add("shuffle_bytes", nbytes)
                runs.append(pairs)
            shuffle_loads[worker] += fetch_s
            if not runs:
                continue

            reducer = jobconf.reducer()
            if fold:
                num_records, folded = _fold_groups(runs, reducer.accumulate)
            else:
                num_records, folded = _fold_sorted(runs, reducer.accumulate)
            sort_loads[worker] += cost.sort_time(num_records)
            keys: List[Any] = []
            news: List[Any] = []
            acc_outputs = state.acc_outputs
            for k2, acc in folded:
                old = acc_outputs.get(k2)
                new = acc if old is None else reducer.accumulate(old, acc)
                acc_outputs[k2] = new
                keys.append(k2)
                news.append(new)
            changed_output_bytes += columns_size(keys, news)
            metrics.counters.add("affected_reduce_instances", len(keys))
            reduce_loads[worker] += cost.cpu_time(num_records, reducer.cpu_weight)

        metrics.times.shuffle = max(shuffle_loads)
        metrics.times.sort = max(sort_loads)
        metrics.times.reduce = max(reduce_loads) + cost.disk_write_time(
            changed_output_bytes
        )
        metrics.counters.add("changed_output_bytes", changed_output_bytes)

        self.dfs.write(jobconf.output, state.result_records(), overwrite=True)
        return JobResult(output=jobconf.output, metrics=metrics)


def _foldable(tasks: List[MapTaskOutput]) -> bool:
    """Whether an accumulator refresh may fold its fold spills as they are.

    Every spilled partition must be a fold spill, and the refresh's keys
    together must pass :func:`~repro.common.kvpair.keys_groupable`: one
    class, so a dict merges exactly the keys the sorted merge groups and
    native order is shuffle order.  Otherwise the whole refresh takes
    the sorted path.
    """
    spills = [part for task in tasks for part in task.partitions.values()]
    if any(type(spill) is not dict for spill in spills):
        return False
    return keys_groupable(list(chain.from_iterable(spills)))


def _fold_groups(
    runs: List[Dict[Any, List[Any]]], accumulate: Callable[[Any, Any], Any]
) -> Tuple[int, List[Tuple[Any, Any]]]:
    """Fold one partition's fold spills: ``(records, [(K2, acc)] key-sorted)``.

    Runs are visited in task order and each key's values left to right —
    the per-key order of the stable sorted merge — so every ``acc`` is
    bit-identical to folding that merge's group.
    """
    folded: Dict[Any, Any] = {}
    num_records = 0
    for groups in runs:
        num_records += sum(map(len, groups.values()))
        for key, values in groups.items():
            if key in folded:
                folded[key] = reduce(accumulate, values, folded[key])
            else:
                folded[key] = reduce(accumulate, values)
    return num_records, [(key, folded[key]) for key in sorted(folded)]


def _fold_sorted(
    runs: List[Any], accumulate: Callable[[Any, Any], Any]
) -> Tuple[int, List[Tuple[Any, Any]]]:
    """:func:`_fold_groups` through the sorted merge, for any key set."""
    merged = merge_sorted_runs([sorted_run(run) for run in runs])
    return len(merged), [
        (key, reduce(accumulate, values)) for key, values in group_sorted(merged)
    ]
