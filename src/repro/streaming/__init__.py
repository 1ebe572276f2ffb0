"""Continuous delta ingestion and micro-batched incremental pipelines.

The paper's engines refresh a computation for *one* hand-built delta.
This subsystem turns them into a long-running service: a
:class:`DeltaSource` produces timestamped delta records, a
:class:`BatchPolicy` cuts them into micro-batches, and a
:class:`ContinuousPipeline` feeds each batch through
``run_incremental`` while the MRBG-Store and converged state persist
across batches.  Per-batch latency, queueing and backlog are recorded
in simulated time, so runs are exactly reproducible.

Quickstart::

    from repro.streaming import (
        ContinuousPipeline, CountBatcher,
        IterativeStreamConsumer, evolving_web_graph_source,
    )

    source = evolving_web_graph_source(graph, fraction=0.05, generations=3)
    consumer = IterativeStreamConsumer.from_initial(cluster, dfs, job)
    with ContinuousPipeline(source, CountBatcher(64), consumer) as pipe:
        result = pipe.run()
    print(result.mean_latency_s, result.max_backlog)
"""

from repro.streaming.batching import (
    BackpressureBatcher,
    BatchFeedback,
    BatchPolicy,
    ByteBudgetBatcher,
    CountBatcher,
    TimeWindowBatcher,
)
from repro.streaming.consumers import (
    BatchOutcome,
    IterativeStreamConsumer,
    OneStepStreamConsumer,
    StreamConsumer,
)
from repro.streaming.metrics import StreamBatchMetrics, StreamRunResult
from repro.streaming.pipeline import ContinuousPipeline, delta_record_size
from repro.streaming.sources import (
    ArrivedRecord,
    DeltaSource,
    DFSTailSource,
    ReplaySource,
    SyntheticEvolvingSource,
    evolving_points_source,
    evolving_text_source,
    evolving_web_graph_source,
    evolving_weighted_graph_source,
)

__all__ = [
    "BackpressureBatcher",
    "BatchFeedback",
    "BatchPolicy",
    "ByteBudgetBatcher",
    "CountBatcher",
    "TimeWindowBatcher",
    "BatchOutcome",
    "IterativeStreamConsumer",
    "OneStepStreamConsumer",
    "StreamConsumer",
    "StreamBatchMetrics",
    "StreamRunResult",
    "ContinuousPipeline",
    "delta_record_size",
    "ArrivedRecord",
    "DeltaSource",
    "DFSTailSource",
    "ReplaySource",
    "SyntheticEvolvingSource",
    "evolving_points_source",
    "evolving_text_source",
    "evolving_web_graph_source",
    "evolving_weighted_graph_source",
]
