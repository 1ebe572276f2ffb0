"""i2MapReduce — incremental MapReduce for mining evolving big data.

A from-scratch reproduction of Zhang, Chen, Wang & Yu (ICDE), built as a
production-quality Python library:

- :mod:`repro.mapreduce` — a Hadoop-like MapReduce engine over a
  deterministic simulated cluster (:mod:`repro.cluster`) and a
  block-structured DFS (:mod:`repro.dfs`);
- :mod:`repro.mrbgraph` — the MRBGraph abstraction and the real on-disk
  MRBG-Store with its four read-window policies (paper sections 3.2-3.4, 5.2);
- :mod:`repro.incremental` — fine-grain incremental one-step processing
  and the accumulator-Reduce fast path (section 3);
- :mod:`repro.iterative` — the general-purpose iterative model with the
  Project API and dependency-aware co-partitioning (section 4);
- :mod:`repro.inciter` — incremental iterative processing with change
  propagation control and the P-delta auto-off (section 5);
- :mod:`repro.execution` — pluggable host execution backends (serial /
  thread / process) every engine dispatches its task batches through;
- :mod:`repro.streaming` — continuous delta ingestion: delta sources,
  micro-batching policies (count / bytes / time-window / backpressure)
  and the :class:`ContinuousPipeline` driver that keeps the incremental
  engines running over an evolving stream;
- :mod:`repro.serving` — the online read path over preserved state:
  epoch-pinned snapshot-isolated queries (point / multi-get / range /
  prefix / incrementally-maintained top-k), a delta-invalidated result
  cache, and the :class:`ServingBridge` that turns every committed
  micro-batch into a served epoch;
- :mod:`repro.faults` — checkpoint-based fault tolerance (section 6);
- :mod:`repro.baselines` — PlainMR recomputation, HaLoop, a Spark-like
  in-memory engine and an Incoop-like task-level memoizer (section 8.1.1);
- :mod:`repro.algorithms` — PageRank, SSSP, Kmeans, GIM-V, APriori and
  WordCount, each with reference implementations (section 8.1.3);
- :mod:`repro.datasets` — seeded synthetic stand-ins for Table 3's data;
- :mod:`repro.experiments` — one module per table/figure in section 8.

Quickstart::

    from repro import (
        Cluster, DistributedFS, JobConf, IncrMREngine,
        Mapper, SumReducer, insert, delta_to_dfs_records,
    )

    class TokenMapper(Mapper):
        def map(self, key, text, ctx):
            for word in text.split():
                ctx.emit(word, 1)

    cluster = Cluster(num_workers=4)
    dfs = DistributedFS(cluster)
    dfs.write("/docs", [(0, "a b a"), (1, "b c")])
    engine = IncrMREngine(cluster, dfs)
    conf = JobConf("wordcount", TokenMapper, SumReducer,
                   inputs=["/docs"], output="/counts", num_reducers=2)
    result, state = engine.run_initial(conf, accumulator=True)
    dfs.write("/delta", delta_to_dfs_records([insert(2, "c c")]))
    engine.run_incremental(conf, "/delta", state)
    print(dict(dfs.read("/counts")))   # {'a': 2, 'b': 2, 'c': 3}
"""

from repro.algorithms import GIMV, APriori, Kmeans, PageRank, SSSP
from repro.baselines import HaLoopDriver, HaLoopEngine, PlainMRDriver
from repro.baselines.incoop import IncoopEngine
from repro.baselines.spark import SparkLikeDriver
from repro.cluster import Cluster, CostModel
from repro.common.kvpair import DeltaRecord, Op, delete, insert, update
from repro.dfs import DistributedFS
from repro.execution import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    resolve_executor,
)
from repro.faults import FaultContext, FaultInjector, FaultSpec
from repro.inciter import I2MREngine, I2MROptions
from repro.incremental import (
    AccumulatorReducer,
    IncrMREngine,
    PreservedJobState,
    SumReducer,
    delta_to_dfs_records,
)
from repro.iterative import Dependency, IterativeJob, IterMREngine
from repro.mapreduce import (
    Context,
    JobConf,
    Mapper,
    MapReduceEngine,
    Reducer,
)
from repro.mrbgraph import HashShardRouter, MRBGStore, ShardedMRBGStore
from repro.serving import (
    EpochManager,
    EpochSnapshot,
    QueryMix,
    QueryResult,
    QueryServer,
    ResultCache,
    ServingBridge,
)
from repro.streaming import (
    BackpressureBatcher,
    ByteBudgetBatcher,
    ContinuousPipeline,
    CountBatcher,
    DeltaSource,
    DFSTailSource,
    IterativeStreamConsumer,
    OneStepStreamConsumer,
    ReplaySource,
    TimeWindowBatcher,
)

__version__ = "1.3.0"

__all__ = [
    "GIMV",
    "APriori",
    "Kmeans",
    "PageRank",
    "SSSP",
    "HaLoopDriver",
    "HaLoopEngine",
    "PlainMRDriver",
    "IncoopEngine",
    "SparkLikeDriver",
    "Cluster",
    "CostModel",
    "DeltaRecord",
    "Op",
    "delete",
    "insert",
    "update",
    "DistributedFS",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "resolve_executor",
    "FaultContext",
    "FaultInjector",
    "FaultSpec",
    "I2MREngine",
    "I2MROptions",
    "AccumulatorReducer",
    "IncrMREngine",
    "PreservedJobState",
    "SumReducer",
    "delta_to_dfs_records",
    "Dependency",
    "IterativeJob",
    "IterMREngine",
    "Context",
    "JobConf",
    "Mapper",
    "MapReduceEngine",
    "Reducer",
    "MRBGStore",
    "HashShardRouter",
    "ShardedMRBGStore",
    "EpochManager",
    "EpochSnapshot",
    "QueryMix",
    "QueryResult",
    "QueryServer",
    "ResultCache",
    "ServingBridge",
    "BackpressureBatcher",
    "ByteBudgetBatcher",
    "ContinuousPipeline",
    "CountBatcher",
    "DeltaSource",
    "DFSTailSource",
    "IterativeStreamConsumer",
    "OneStepStreamConsumer",
    "ReplaySource",
    "TimeWindowBatcher",
    "__version__",
]
