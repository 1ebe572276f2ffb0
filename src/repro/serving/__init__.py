"""Online query serving over preserved state (the ROADMAP's front door).

The package turns a streaming job's converged outputs into an online
read path with three guarantees:

- **Snapshot isolation** — :class:`EpochManager` publishes an immutable
  :class:`EpochSnapshot` per committed micro-batch; every query pins
  one epoch for its lifetime and can never observe a half-applied
  delta, no matter how ingestion interleaves with it.
- **Delta-driven caching** — :class:`ResultCache` memoises whole query
  results and each published epoch's touched-key set invalidates
  exactly the entries it could have changed.
- **Honest costs** — :class:`QueryServer` charges every miss's bytes
  through the cluster :class:`~repro.cluster.costmodel.CostModel`
  (home-shard local read, cross-shard network hops) and enforces a
  per-query simulated deadline.

:class:`ServingBridge` wires a
:class:`~repro.streaming.pipeline.ContinuousPipeline` to a server so
each committed batch becomes the next served epoch; :class:`QueryMix`
describes the query mix the benchmarks issue.
"""

from repro.serving.cache import CacheStats, ResultCache, entry_signature
from repro.serving.epochs import EpochManager, EpochSnapshot
from repro.serving.mix import QueryMix, percentile
from repro.serving.server import (
    QueryResult,
    QueryServer,
    ServerStats,
    ServingBridge,
)

__all__ = [
    "CacheStats",
    "EpochManager",
    "EpochSnapshot",
    "QueryMix",
    "QueryResult",
    "QueryServer",
    "ResultCache",
    "ServerStats",
    "ServingBridge",
    "entry_signature",
    "percentile",
]
