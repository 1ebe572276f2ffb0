"""The four workloads as drivers over ``repro``'s public API.

A driver owns one instance of the system under test.  ``setup`` builds
the inputs (from :mod:`bench.workloads`), runs the initial job or store
build, publishes epoch 0 and runs the warm-up units; ``run_unit`` plays
one *delta in → refresh → publish → query burst* turn and times the
refresh and the burst separately; ``verify`` compares the final state
with an oracle.  Oracles and input generation always run outside the
timed regions.  One thread, closed loop: the next operation is issued
when the previous one returned.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import pickle
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.inciter.engine as inciter_engine
import repro.mapreduce.engine as mapreduce_engine
import repro.mrbgraph.graph as mrbgraph_graph
import repro.mrbgraph.sharding as mrbgraph_sharding
from repro import (
    Cluster,
    ContinuousPipeline,
    CountBatcher,
    DistributedFS,
    I2MREngine,
    I2MROptions,
    IncrMREngine,
    IterativeJob,
    JobConf,
    MRBGStore,
    PageRank,
    QueryServer,
    ReplaySource,
    SerialBackend,
    ServingBridge,
    ShardedMRBGStore,
)
from repro.algorithms.wordcount import WordCountMapper, WordCountReducer
from repro.execution import ExecutionBackend
from repro.mrbgraph import Edge, StoreMetrics, WriteAheadLog
from repro.mrbgraph.chunk import chunk_size
from repro.streaming import IterativeStreamConsumer, OneStepStreamConsumer

from bench import workloads
from bench.trace import Target, Tracer

#: CPC filter threshold of the PageRank refreshes.  A change below it is
#: never propagated, so a page's rank may lag a recomputation by up to the
#: threshold per in-link and batch — an error that grows with the rank.
#: The final-state oracle therefore allows ``100 x threshold x max(1, rank)``
#: per page (measured drift after 16 batches: 4e-5 of the rank).
FILTER_THRESHOLD = 1e-4

#: 1 query in this many has its answer compared with the oracle.
ORACLE_EVERY = 500

#: Chunks compared with the in-memory model after every store reopen.
STORE_SAMPLE = 200


@dataclass
class UnitSample:
    """What one unit cost and produced."""

    refresh_s: float
    #: delta records (store: chunks) the refresh applied.
    records: int
    #: simulated seconds the refresh was charged (the paper's clock).
    sim_s: float
    burst_s: float
    queries: int
    #: digest of the full state after the refresh (same seed => same digest).
    digest: str
    #: traced runs only: ``(kind, seconds)`` per query of the burst.
    latencies: List[Tuple[str, float]] = field(default_factory=list)


@contextlib.contextmanager
def _resumed(tracer: Optional[Tracer]) -> Iterator[None]:
    """Attribute what runs inside to the tracer (if any): the refresh only."""
    if tracer is not None:
        tracer.paused = False
    try:
        yield
    finally:
        if tracer is not None:
            tracer.paused = True


def state_digest(state: Dict[Any, Any]) -> str:
    """Order-independent content digest of a ``key -> value`` state."""
    return hashlib.sha256(repr(sorted(state.items())).encode()).hexdigest()[:16]


def _layer_name(backend: Any) -> str:
    # ResilientExecutor inherits run_tasks and calls the wrapped backend's:
    # the outer span is the resilience layer, the inner one the executor.
    return (
        "resilience.run_tasks"
        if type(backend).__name__ == "ResilientExecutor"
        else "execution.run_tasks"
    )


class Driver:
    """Shared bookkeeping of every workload driver."""

    def __init__(self, name: str, sizes: Dict[str, Any], seed: int) -> None:
        self.name = name
        self.seed = seed
        #: operations attempted / failed so far (batches, queries, oracle checks).
        self.attempted = 0
        self.failed = 0
        #: numbers only a trace hook can see (filled during traced units).
        self.observed: Counter = Counter()
        #: store_maintain: data-file bytes per live byte before each compaction.
        self.space_amp: List[float] = []

    # -- overridden per workload ---------------------------------------- #

    def setup(self) -> None:
        raise NotImplementedError

    def run_unit(self, unit: int, tracer: Optional[Tracer] = None) -> UnitSample:
        raise NotImplementedError

    def verify(self) -> None:
        """Final oracle; mismatches count into :attr:`failed`."""
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Cumulative per-layer counts from the system's public stats."""
        raise NotImplementedError

    def trace_targets(self) -> List[Target]:
        raise NotImplementedError

    def shard_loads(self) -> List[int]:
        """Cumulative work per store shard (the shard-skew input); [] if unsharded."""
        return []

    def sample_records(self) -> List[Tuple[Any, Any]]:
        """Records of the last delta, for the codec/hash micro-calls."""
        return []

    def sample_chunks(self) -> List[Tuple[Any, List[Edge]]]:
        """Preserved chunks, for the chunk codec micro-calls."""
        return []

    def close(self) -> None:
        raise NotImplementedError

    # -- helpers --------------------------------------------------------- #

    def check(self, ok: bool) -> None:
        """Count one oracle comparison."""
        self.attempted += 1
        if not ok:
            self.failed += 1

    def burst(
        self, calls: List[Tuple[str, Callable, tuple]], traced: bool
    ) -> Tuple[float, List[Tuple[int, Any]], List[Tuple[str, float]]]:
        """Issue ``(kind, callable, args)`` back to back, one client.

        Returns the burst's seconds, every ``ORACLE_EVERY``-th answer as
        ``(index, answer)`` for the oracle, and — traced runs only — one
        ``(kind, seconds)`` per call.  A call that raises (a timed-out
        query does) is a failed operation.
        """
        sampled: List[Tuple[int, Any]] = []
        latencies: List[Tuple[str, float]] = []
        errors = 0
        clock = time.perf_counter
        gc.collect()
        started = clock()
        if not traced:
            for index, (_, call, args) in enumerate(calls):
                try:
                    answer = call(*args)
                except Exception:
                    errors += 1
                    continue
                if index % ORACLE_EVERY == 0:
                    sampled.append((index, answer))
        else:
            for index, (kind, call, args) in enumerate(calls):
                t0 = clock()
                try:
                    answer = call(*args)
                except Exception:
                    errors += 1
                    continue
                latencies.append((kind, clock() - t0))
                if index % ORACLE_EVERY == 0:
                    sampled.append((index, answer))
        seconds = clock() - started
        self.attempted += len(calls)
        self.failed += errors
        return seconds, sampled, latencies

    def _observe_pickle(self, args: tuple, kwargs: dict, result: Any) -> None:
        """What a process pool had to ship for this batch (trace hook)."""
        backend, payloads = args[0], args[2]
        picklable = args[3] if len(args) > 3 else kwargs.get("picklable", True)
        if type(backend).__name__ != "ProcessBackend" or not picklable or len(payloads) < 2:
            return  # ran in-process: nothing crossed a process boundary
        started = time.perf_counter()
        self.observed["execution.payload_pickle_bytes"] += len(pickle.dumps(list(payloads)))
        self.observed["execution.payload_pickle_s"] += time.perf_counter() - started
        self.observed["execution.result_pickle_bytes"] += len(pickle.dumps(result))


# ---------------------------------------------------------------------- #
# streaming workloads: pipeline + serving                                #
# ---------------------------------------------------------------------- #


class StreamDriver(Driver):
    """delta → ``ContinuousPipeline.run(max_batches=1)`` → epoch → query burst."""

    mix = workloads.POINT_HEAVY
    num_queries = 0

    # set by build():
    consumer: Any
    job: Any

    def build(self) -> None:
        """Generate the inputs and run the initial (non-incremental) job."""
        raise NotImplementedError

    def next_delta(self, unit: int) -> List[Any]:
        """Unit ``unit``'s delta records (also advances the oracle's inputs)."""
        raise NotImplementedError

    def setup(self) -> None:
        self.build()
        self.server = QueryServer()
        self.server.publish(self.consumer.state())
        self.source = ReplaySource([], rate=1000.0)
        # One batch per unit: the batcher never closes a batch early, the
        # drained source does.
        self.pipeline = ContinuousPipeline(self.source, CountBatcher(10**9), self.consumer)
        self.pipeline.add_batch_listener(ServingBridge(self.server))
        self.last_delta: List[Any] = []
        for unit in range(workloads.WARMUP_UNITS):
            self.run_unit(unit)

    def run_unit(self, unit: int, tracer: Optional[Tracer] = None) -> UnitSample:
        self.last_delta = self.next_delta(unit)
        self.source.extend(self.last_delta)
        gc.collect()
        with _resumed(tracer):
            started = time.perf_counter()
            self.pipeline.run(max_batches=1)
            refresh_s = time.perf_counter() - started
        batch = self.pipeline.result.batches[-1]
        self.check(not batch.dead_lettered and batch.num_records == len(self.last_delta))

        state = self.consumer.state()
        queries = workloads.query_stream(
            sorted(state), self.mix, self.num_queries, self.seed, unit
        )
        server = self.server
        burst_s, sampled, latencies = self.burst(
            [(kind, getattr(server, kind), args) for kind, args in queries], tracer is not None
        )

        epoch = server.manager.latest_epoch
        for index, answer in sampled:
            kind, args = queries[index]
            self.check(answer.epoch == epoch and answer.value == _expected(state, kind, args))
        return UnitSample(
            refresh_s=refresh_s,
            records=batch.num_records,
            sim_s=batch.processing_s,
            burst_s=burst_s,
            queries=len(queries),
            digest=state_digest(state),
            latencies=latencies,
        )

    def counters(self) -> Dict[str, float]:
        batches = self.pipeline.result.batches
        cache = self.server.cache.stats
        backend = self.consumer.engine.backend_for(self.job)
        inner = getattr(backend, "inner", backend)
        return {
            "streaming.batches": len(batches),
            "streaming.records_in": sum(b.num_records for b in batches),
            "streaming.dead_lettered": len(self.pipeline.dead_letters),
            "execution.batches": inner.stats.batches,
            "execution.tasks_run": inner.stats.tasks_run,
            "execution.inproc_fallbacks": inner.stats.inproc_fallbacks,
            "resilience.retries": backend.stats.retries,
            "resilience.task_failures": backend.stats.task_failures,
            "resilience.degraded_batches": backend.stats.degraded_batches,
            "serving.cache_hits": cache.hits,
            "serving.cache_misses": cache.misses,
            "serving.cache_invalidations": cache.invalidations,
            "serving.topk_rebuilds": self.server.manager.topk_rebuilds,
            "serving.timeouts": self.server.stats.timeouts,
        }

    def _observe_publish(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.observed["serving.publish_touched_keys"] += len(
            self.server.manager.latest().touched
        )

    def trace_targets(self) -> List[Target]:
        return [
            Target(ContinuousPipeline, "run", "streaming.pipeline", record=True),
            Target(type(self.consumer), "process_batch", "streaming.pipeline"),
            Target(ServingBridge, "__call__", "serving.publish", record=True, keep=True,
                   after=self._observe_publish),
            Target(ExecutionBackend, "run_tasks", _layer_name, record=True,
                   after=self._observe_pickle),
            Target(DistributedFS, "write", "dfs.write", record=True),
        ]

    def sample_records(self) -> List[Tuple[Any, Any]]:
        return [(rec.key, rec.value) for rec in self.last_delta]

    def close(self) -> None:
        self.pipeline.close()


def _expected(state: Dict[Any, Any], kind: str, args: tuple) -> Any:
    """The answer a query must give at the epoch published from ``state``."""
    if kind == "get":
        return state.get(args[0])
    if kind == "multi_get":
        return {key: state.get(key) for key in args[0]}
    if kind == "top_k":
        return sorted(state.items(), key=lambda kv: (kv[1], kv[0]), reverse=True)[: args[0]]
    lo, hi = args
    return sorted((key, value) for key, value in state.items() if lo <= key <= hi)


#: Store-layer callables timed in every workload that can reach the store.
def store_targets() -> List[Target]:
    return [
        Target(ShardedMRBGStore, "merge_delta", "mrbgraph.shard_fanout", record=True),
        Target(MRBGStore, "merge_delta", "mrbgraph.merge_delta", record=True),
        Target(MRBGStore, "begin_merge", "mrbgraph.begin_merge"),
        Target(MRBGStore, "get_chunk", "mrbgraph.get_chunk"),
        Target(MRBGStore, "put_chunk", "mrbgraph.put_chunk"),
        Target(MRBGStore, "delete_chunk", "mrbgraph.put_chunk"),
        Target(MRBGStore, "end_merge", "mrbgraph.end_merge"),
        Target(mrbgraph_graph, "apply_delta", "mrbgraph.apply_delta"),
        Target(WriteAheadLog, "append", "mrbgraph.wal_append"),
        Target(WriteAheadLog, "flush", "mrbgraph.wal_append"),
        Target(ShardedMRBGStore, "abandon", "mrbgraph.recover_open", record=True),
        Target(ShardedMRBGStore, "compact", "mrbgraph.compact", record=True),
        Target(ShardedMRBGStore, "save_index", "mrbgraph.save_index", record=True),
        Target(MRBGStore, "compact", "mrbgraph.compact", record=True),
        Target(mrbgraph_sharding, "run_shard_compact", "mrbgraph.compact", record=True),
        Target(MRBGStore, "save_index", "mrbgraph.save_index", record=True),
        Target(mrbgraph_sharding, "run_shard_index_flush", "mrbgraph.save_index", record=True),
    ]


def store_counters(metrics: StoreMetrics) -> Dict[str, float]:
    """The ``mrbgraph.*`` counts every store-backed workload reports."""
    return {
        "mrbgraph.io_reads": metrics.io_reads,
        "mrbgraph.bytes_read": metrics.bytes_read,
        "mrbgraph.bytes_written": metrics.bytes_written,
        "mrbgraph.wal_bytes": metrics.wal_bytes_written,
        "mrbgraph.wal_bytes_replayed": metrics.wal_bytes_replayed,
        "mrbgraph.window_hits": metrics.cache_hits,
        "mrbgraph.window_misses": metrics.cache_misses,
    }


class PageRankDriver(StreamDriver):
    """``pagerank_e2e`` (serial, 1 shard) and ``pagerank_par`` (process, 4 shards)."""

    def __init__(self, name: str, sizes: Dict[str, Any], seed: int) -> None:
        super().__init__(name, sizes, seed)
        self.size: workloads.PageRankSize = sizes["pagerank"]
        self.num_queries = self.size.queries
        self.parallel = name == "pagerank_par"

    def _job(self, graph: Any, **executor: Any) -> IterativeJob:
        return IterativeJob(
            PageRank(), graph, num_partitions=4, max_iterations=50, epsilon=1e-6, **executor
        )

    def build(self) -> None:
        self.graph = workloads.web_graph(self.size, self.seed)
        cluster = Cluster(num_workers=8)
        executor = (
            {"executor": "process", "max_workers": 2}
            if self.parallel
            else {"executor": "serial"}
        )
        self.job = self._job(self.graph, **executor)
        # 40 iterations let every refresh run until the CPC filter empties
        # the delta state; a refresh cut off earlier drops the changes it
        # has not yet propagated and drifts away from a recomputation.
        options = I2MROptions(
            filter_threshold=FILTER_THRESHOLD, max_iterations=40, epsilon=1e-6
        )
        self.consumer = IterativeStreamConsumer.from_initial(
            cluster, DistributedFS(cluster), self.job, options,
            num_shards=4 if self.parallel else 1,
        )

    def next_delta(self, unit: int) -> List[Any]:
        delta = workloads.web_delta(self.graph, self.size, self.seed, unit)
        self.graph = delta.new_graph
        return delta.records

    def verify(self) -> None:
        """Final ranks vs a from-scratch ``run_initial`` on the final graph."""
        cluster = Cluster(num_workers=8)
        engine = I2MREngine(cluster, DistributedFS(cluster), executor="serial")
        result, preserved = engine.run_initial(self._job(self.graph))
        preserved.cleanup()
        engine.close()
        state = self.consumer.state()
        self.check(set(state) == set(result.state))
        for key, rank in result.state.items():
            tolerance = 100 * FILTER_THRESHOLD * max(1.0, rank)
            self.check(abs(state.get(key, float("inf")) - rank) <= tolerance)
        batches = self.pipeline.result.batches
        self.check(not any(b.fell_back for b in batches))

    def counters(self) -> Dict[str, float]:
        batches = self.pipeline.result.batches
        out = super().counters()
        out["inciter.iterations"] = sum(b.iterations for b in batches)
        out["inciter.fell_back_batches"] = sum(1 for b in batches if b.fell_back)
        out.update(store_counters(self.consumer.prev.stores.store_metrics()))
        return out

    def shard_loads(self) -> List[int]:
        """Bytes written so far per (partition, shard)."""
        written: List[int] = []
        for store in self.consumer.prev.stores.stores.values():
            if isinstance(store, ShardedMRBGStore):
                written.extend(m.bytes_written for m in store.shard_metrics())
        return written

    def _observe_refresh(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.observed["inciter.propagated_kv_pairs"] += sum(
            stats.propagated_kv_pairs for stats in result.per_iteration
        )

    def trace_targets(self) -> List[Target]:
        targets = super().trace_targets() + store_targets() + [
            Target(I2MREngine, "run_incremental", "inciter.run_incremental", record=True,
                   after=self._observe_refresh),
        ]
        if not self.parallel:
            # Under the process backend the task function runs in workers,
            # where this process cannot see it.
            targets.append(Target(inciter_engine, "execute_delta_state_map_task",
                                  "inciter.map_task", record=True))
        return targets

    def sample_chunks(self) -> List[Tuple[Any, List[Edge]]]:
        chunks: List[Tuple[Any, List[Edge]]] = []
        for store in self.consumer.prev.stores.stores.values():
            for key in store.keys()[:STORE_SAMPLE]:
                chunks.append((key, store.get_chunk(key)))
        return chunks


class WordCountDriver(StreamDriver):
    """``wordcount_accum``: accumulator WordCount over an insert-only stream."""

    mix = workloads.SCAN_HEAVY

    def __init__(self, name: str, sizes: Dict[str, Any], seed: int) -> None:
        super().__init__(name, sizes, seed)
        self.size: workloads.WordCountSize = sizes["wordcount"]
        self.num_queries = self.size.queries

    def build(self) -> None:
        corpus = workloads.tweets(self.size, self.seed)
        self.expected: Counter = Counter()
        self._count(text for _, text in corpus)
        cluster = Cluster(num_workers=8)
        # 256 KiB blocks: every batch splits into several map tasks.
        dfs = DistributedFS(cluster, block_size=256 * 1024)
        dfs.write("/tweets", corpus)
        self.job = JobConf(
            name="wordcount", mapper=WordCountMapper, reducer=WordCountReducer,
            inputs=["/tweets"], output="/counts", num_reducers=4, executor="serial",
        )
        self.consumer = OneStepStreamConsumer.from_initial(
            cluster, dfs, self.job, accumulator=True
        )

    def _count(self, texts: Any) -> None:
        for text in texts:
            self.expected.update(text.split())

    def next_delta(self, unit: int) -> List[Any]:
        records = workloads.tweet_batch(self.size, self.seed, unit)
        self._count(rec.value for rec in records)
        return records

    def verify(self) -> None:
        """Final counts vs a plain ``Counter`` over every tweet ingested."""
        state = self.consumer.state()
        self.check(set(state) == set(self.expected))
        for word, count in self.expected.items():
            self.check(state.get(word) == count)

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        # The accumulator path must never open an MRBG-Store.
        out.update(store_counters(self.consumer.preserved.store_metrics()))
        return out

    def _observe_refresh(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.observed["mapreduce.map_output_records"] += result.metrics.counters.as_dict().get(
            "map_output_records", 0
        )

    def trace_targets(self) -> List[Target]:
        return super().trace_targets() + store_targets() + [
            Target(IncrMREngine, "run_incremental", "incremental.run_incremental",
                   record=True, after=self._observe_refresh),
            Target(mapreduce_engine.MapReduceEngine, "map_phase", "mapreduce.map_phase",
                   record=True),
            Target(mapreduce_engine, "execute_map_task", "mapreduce.map_task", record=True),
            Target(mapreduce_engine, "partition_and_sort", "mapreduce.partition_and_sort",
                   record=True),
            Target(mapreduce_engine, "merge_sorted_runs", "common.merge_sorted_runs",
                   record=True),
        ]


# ---------------------------------------------------------------------- #
# store_maintain: the sharded MRBG-Store on its own                      #
# ---------------------------------------------------------------------- #


class StoreDriver(Driver):
    """merge xN → kill → WAL recovery → compact → index flush → point reads."""

    def __init__(self, name: str, sizes: Dict[str, Any], seed: int) -> None:
        super().__init__(name, sizes, seed)
        self.size: workloads.StoreSize = sizes["store"]
        self.directory = tempfile.mkdtemp(prefix="store-")  # under bench/out, see run.py
        self.backend = SerialBackend()
        #: statistics of store objects already killed (each reopen starts at 0).
        self.retired = StoreMetrics()
        #: chunks merged so far per shard.
        self.merged_per_shard = [0, 0, 0, 0]
        self.delta_bytes = 0
        self.compact_bytes = 0
        #: encoded size of every model chunk, kept current delta by delta.
        self.sizes: Dict[int, int] = {}

    def setup(self) -> None:
        self.model = workloads.store_chunks(self.size, self.seed)
        self.store = ShardedMRBGStore(self.directory, num_shards=4, executor=self.backend)
        self.store.build((key, self._edges(key)) for key in sorted(self.model))
        self.store.save_index()
        self.sizes = {key: chunk_size(key, self._edges(key)) for key in self.model}
        self.last_delta: workloads.StoreDelta = []
        for unit in range(workloads.WARMUP_UNITS):
            self.run_unit(unit)

    def _edges(self, key: int) -> List[Edge]:
        return [Edge(mk, value) for mk, value in sorted(self.model[key].items())]

    def run_unit(self, unit: int, tracer: Optional[Tracer] = None) -> UnitSample:
        deltas = [
            workloads.store_delta(self.model, self.size, self.seed, unit, merge)
            for merge in range(self.size.merges)
        ]
        self.last_delta = deltas[-1]
        gc.collect()
        with _resumed(tracer):
            started = time.perf_counter()
            sim_s = 0.0
            for delta in deltas:
                for _ in self.store.merge_delta(delta):
                    pass
                sim_s += self.store.last_schedule.elapsed_s
            self.store.metrics.merged_into(self.retired)
            self.store.abandon()  # simulated kill: nothing is flushed
            reopen = (
                tracer.span("mrbgraph.recover_open", record=True)
                if tracer is not None
                else contextlib.nullcontext()
            )
            with reopen:  # a classmethod, so timed here and not by a Target
                self.store = ShardedMRBGStore.open(self.directory, executor=self.backend)
            uncompacted_bytes = self.store.file_size
            sim_s += self.store.compact().elapsed_s
            self.store.save_index()
            sim_s += self.store.last_schedule.elapsed_s
            refresh_s = time.perf_counter() - started

        self.space_amp.append(uncompacted_bytes / max(1, self.store.live_bytes()))
        self.compact_bytes += self.store.file_size
        for delta in deltas:
            self.attempted += 1
            self.delta_bytes += sum(
                chunk_size(key, [edge[:2] for edge in edges]) for key, edges in delta
            )
            for key, _ in delta:
                self.merged_per_shard[self.store.router.shard_for(key)] += 1
                if key in self.model:
                    self.sizes[key] = chunk_size(key, self._edges(key))
                else:
                    self.sizes.pop(key, None)
        self._verify_sample(unit)

        keys = workloads.read_keys(self.model, self.size, self.seed, unit)
        read = self.store.get_chunk
        burst_s, sampled, latencies = self.burst(
            [("get_chunk", read, (key,)) for key in keys], tracer is not None
        )
        for index, answer in sampled:
            self.check(answer == self._edges(keys[index]))
        return UnitSample(
            refresh_s=refresh_s,
            records=sum(len(delta) for delta in deltas),
            sim_s=sim_s,
            burst_s=burst_s,
            queries=len(keys),
            digest=self._digest(),
            latencies=latencies,
        )

    def _digest(self) -> str:
        sizes = sorted((key, len(chunk)) for key, chunk in self.model.items())
        return hashlib.sha256(repr((sizes, self.store.live_bytes())).encode()).hexdigest()[:16]

    def _verify_sample(self, unit: int) -> None:
        """After the reopen: sampled chunks and ``live_bytes`` vs the model."""
        live = sorted(self.model)
        step = max(1, len(live) // STORE_SAMPLE)
        for key in live[unit % step :: step]:
            self.check(self.store.get_chunk(key) == self._edges(key))
        self.check(len(self.store) == len(self.model))
        self.check(self.store.live_bytes() == sum(self.sizes.values()))

    def verify(self) -> None:
        """Full compare of the store against the in-memory model."""
        self.check(self.store.keys() == sorted(self.model))
        for key in self.model:
            self.check(self.store.get_chunk(key) == self._edges(key))

    def counters(self) -> Dict[str, float]:
        total = self.retired.snapshot()
        self.store.metrics.merged_into(total)
        out = store_counters(total)
        out.update({
            "mrbgraph.compact_bytes_rewritten": self.compact_bytes,
            "mrbgraph.delta_bytes": self.delta_bytes,
            "execution.batches": self.backend.stats.batches,
            "execution.tasks_run": self.backend.stats.tasks_run,
            "execution.inproc_fallbacks": self.backend.stats.inproc_fallbacks,
        })
        return out

    def shard_loads(self) -> List[int]:
        return list(self.merged_per_shard)

    def trace_targets(self) -> List[Target]:
        return store_targets() + [
            Target(ExecutionBackend, "run_tasks", _layer_name, record=True),
        ]

    def sample_records(self) -> List[Tuple[Any, Any]]:
        return [(key, [tuple(edge[:2]) for edge in edges]) for key, edges in self.last_delta]

    def sample_chunks(self) -> List[Tuple[Any, List[Edge]]]:
        return [(key, self._edges(key)) for key in sorted(self.model)[:STORE_SAMPLE]]

    def close(self) -> None:
        self.store.close()


DRIVERS: Dict[str, Callable[..., Driver]] = {
    "pagerank_e2e": PageRankDriver,
    "pagerank_par": PageRankDriver,
    "wordcount_accum": WordCountDriver,
    "store_maintain": StoreDriver,
}
