"""The online query server: the front door over preserved state.

:class:`QueryServer` answers point lookups, multi-gets, range/prefix
scans and top-k queries against the epochs an :class:`~repro.serving.epochs.EpochManager`
publishes.  Every query pins one epoch for its whole lifetime
(snapshot isolation: it can never observe half of a concurrently
committing micro-batch), consults the delta-invalidated
:class:`~repro.serving.cache.ResultCache`, and on a miss reads the
snapshot's shard overlays — charging the bytes it moved through
:meth:`repro.cluster.costmodel.CostModel.serving_read_time` (home shard
local, every other touched shard pays the cross-shard network hop).

Per-query timeouts: a query whose charged *simulated* read cost exceeds
the server's ``timeout_s`` raises :class:`repro.common.errors.QueryTimeout`
instead of returning — the client would have hung up.

:class:`ServingBridge` is the glue to ingestion: registered as a
:class:`~repro.streaming.pipeline.ContinuousPipeline` batch listener it
publishes the consumer's refreshed state as a new epoch after every
*committed* micro-batch (dead-lettered batches publish nothing — their
delta was never applied).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Optional, Set

from repro.cluster.costmodel import CostModel
from repro.common import config
from repro.common.errors import QueryTimeout
from repro.common.kvpair import sort_key
from repro.common.sizeof import record_size
from repro.serving.cache import ResultCache, entry_signature
from repro.serving.epochs import EpochManager, EpochSnapshot, prefix_range


@dataclass
class ServerStats:
    """Aggregate serving counters (simulated costs, not host time)."""

    #: queries answered (timeouts included — the read happened).
    queries: int = 0
    #: queries aborted by the simulated deadline.
    timeouts: int = 0
    #: total simulated read cost charged across all queries (s).
    sim_read_s: float = 0.0
    #: distinct epochs queries were served at.
    epochs_served: Set[int] = field(default_factory=set)

    @property
    def num_epochs_served(self) -> int:
        """How many distinct epochs have answered at least one query."""
        return len(self.epochs_served)


@dataclass(frozen=True)
class QueryResult:
    """One query's answer plus its serving metadata."""

    #: the answer (value, dict, or list of pairs, per query kind).
    value: Any
    #: epoch the query was pinned to.
    epoch: int
    #: whether the answer came from the result cache.
    from_cache: bool
    #: simulated read cost charged for this query (0 on cache hits).
    cost_s: float
    #: serving shards the query read (0 on cache hits).
    shards_read: int


class QueryServer:
    """Snapshot-isolated reads over the published epochs.

    Thread-safe: queries may run from many threads concurrently with
    ingestion publishing new epochs; each query's pinned snapshot is
    immutable, the cache serializes internally, and stats updates hold
    the server's own lock.
    """

    def __init__(
        self,
        manager: Optional[EpochManager] = None,
        num_shards: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        cost_model: Optional[CostModel] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        if manager is None:
            manager = EpochManager(num_shards=num_shards)
        self.manager = manager
        self.cache = ResultCache() if cache is None else cache
        #: simulated per-query deadline in seconds (``None`` = none).
        self.timeout_s = (
            config.DEFAULT_SERVING_TIMEOUT_S if timeout_s is None else timeout_s
        )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        self.cost_model = (cost_model or CostModel()).unscaled()
        self.stats = ServerStats()
        self._lock = threading.Lock()
        # prune the cache before any query can observe the new epoch.
        self.manager.add_listener(self.cache.on_snapshot)

    # -------------------------------------------------------------- #
    # ingestion side                                                 #
    # -------------------------------------------------------------- #

    def publish(self, state: Mapping[Any, Any]) -> EpochSnapshot:
        """Commit ``state`` as the next served epoch (see the manager)."""
        return self.manager.publish(state)

    def publish_delta(
        self, changed: Mapping[Any, Any], deleted: Iterable[Any] = ()
    ) -> EpochSnapshot:
        """Commit an explicit change set as the next served epoch."""
        return self.manager.publish_delta(changed, deleted)

    # -------------------------------------------------------------- #
    # query plumbing                                                 #
    # -------------------------------------------------------------- #

    def _account(self, snapshot: EpochSnapshot, cost_s: float, kind: str) -> None:
        """Record stats and enforce the simulated query deadline."""
        timeout = self.timeout_s
        timed_out = timeout is not None and cost_s > timeout
        with self._lock:
            self.stats.queries += 1
            self.stats.sim_read_s += cost_s
            self.stats.epochs_served.add(snapshot.epoch)
            if timed_out:
                self.stats.timeouts += 1
        if timed_out:
            raise QueryTimeout(kind, cost_s, timeout)

    def _shard_cost(self, by_shard: Dict[int, int]) -> float:
        """Cost of reading per-shard byte volumes, home shard = largest."""
        if not by_shard:
            return self.cost_model.store_read_time(0)
        volumes = sorted(by_shard.values(), reverse=True)
        return self.cost_model.serving_read_time(volumes[0], volumes[1:])

    def _cached(
        self, sig: str, snapshot: EpochSnapshot, kind: str
    ) -> Optional[QueryResult]:
        hit, value = self.cache.get(sig, snapshot.epoch)
        if not hit:
            return None
        self._account(snapshot, 0.0, kind)
        return QueryResult(
            value=value,
            epoch=snapshot.epoch,
            from_cache=True,
            cost_s=0.0,
            shards_read=0,
        )

    def _scan(
        self,
        snap: EpochSnapshot,
        sig: str,
        lo: Any,
        hi: Any,
        limit: Optional[int],
        kind: str,
    ) -> QueryResult:
        """Answer a range-shaped scan on a cache miss; every shard the
        range covers counts as read, hit or not."""
        hits, by_shard = snap.scan(lo, hi, limit)
        cost_s = self._shard_cost(by_shard)
        self.cache.put(
            sig, hits, snap.epoch, self.manager.latest_epoch,
            bounds=(sort_key(lo), sort_key(hi)),
        )
        self._account(snap, cost_s, kind)
        return QueryResult(
            hits, snap.epoch, False, cost_s, max(1, len(by_shard))
        )

    # -------------------------------------------------------------- #
    # queries                                                        #
    # -------------------------------------------------------------- #

    def get(
        self, key: Any, epoch: Optional[int] = None, default: Any = None
    ) -> QueryResult:
        """Point lookup, pinned to ``epoch`` (None = latest)."""
        with self.manager.pinned(epoch) as snap:
            sig = entry_signature("get", (key, default))
            cached = self._cached(sig, snap, "get")
            if cached is not None:
                return cached
            value = snap.get(key, default)
            nbytes = record_size(key, value)
            cost_s = self.cost_model.serving_read_time(nbytes)
            self.cache.put(
                sig, value, snap.epoch, self.manager.latest_epoch,
                deps=frozenset((key,)),
            )
            self._account(snap, cost_s, "get")
            return QueryResult(value, snap.epoch, False, cost_s, 1)

    def multi_get(
        self,
        keys: Iterable[Any],
        epoch: Optional[int] = None,
        default: Any = None,
    ) -> QueryResult:
        """Batched point lookups; one cross-shard fan-out, one answer.

        The answer is a ``key -> value`` dict over the requested keys.
        The shard holding the most requested bytes is the query's home;
        every other touched shard pays the network hop.
        """
        keys = list(keys)
        with self.manager.pinned(epoch) as snap:
            sig = entry_signature("multi_get", (tuple(keys), default))
            cached = self._cached(sig, snap, "multi_get")
            if cached is not None:
                return cached
            answer: Dict[Any, Any] = {}
            by_shard: Dict[int, int] = {}
            for key in keys:
                value = snap.get(key, default)
                answer[key] = value
                sid = snap.shard_for(key)
                by_shard[sid] = by_shard.get(sid, 0) + record_size(key, value)
            cost_s = self._shard_cost(by_shard)
            self.cache.put(
                sig, answer, snap.epoch, self.manager.latest_epoch,
                deps=frozenset(keys),
            )
            self._account(snap, cost_s, "multi_get")
            return QueryResult(
                answer, snap.epoch, False, cost_s, max(1, len(by_shard))
            )

    def range_scan(
        self,
        lo: Any,
        hi: Any,
        limit: Optional[int] = None,
        epoch: Optional[int] = None,
    ) -> QueryResult:
        """All pairs with ``lo <= key <= hi`` (``sort_key`` order)."""
        with self.manager.pinned(epoch) as snap:
            sig = entry_signature("range", (lo, hi, limit))
            cached = self._cached(sig, snap, "range_scan")
            if cached is not None:
                return cached
            return self._scan(snap, sig, lo, hi, limit, "range_scan")

    def prefix_scan(
        self,
        prefix: str,
        limit: Optional[int] = None,
        epoch: Optional[int] = None,
    ) -> QueryResult:
        """All pairs whose string key starts with ``prefix``."""
        with self.manager.pinned(epoch) as snap:
            sig = entry_signature("prefix", (prefix, limit))
            cached = self._cached(sig, snap, "prefix_scan")
            if cached is not None:
                return cached
            lo, hi = prefix_range(prefix)
            return self._scan(snap, sig, lo, hi, limit, "prefix_scan")

    def top_k(self, k: int, epoch: Optional[int] = None) -> QueryResult:
        """The ``k`` best pairs by (value desc, key desc) rank.

        Served from the manager's incrementally maintained candidates
        when ``k`` is within the tracked depth (reads only the answer's
        bytes); deeper asks fall back to a full snapshot scan and are
        charged every shard's live bytes.
        """
        with self.manager.pinned(epoch) as snap:
            sig = entry_signature("top_k", (k,))
            cached = self._cached(sig, snap, "top_k")
            if cached is not None:
                return cached
            hits = snap.top_k(k)
            incremental = k <= len(snap.topk) or snap.topk_complete
            if incremental:
                nbytes = sum(record_size(key, value) for key, value in hits)
                cost_s = self.cost_model.serving_read_time(nbytes)
                shards_read = 1
            else:
                by_shard = {
                    sid: snap.scan_bytes(sid)
                    for sid in range(snap.num_shards)
                }
                cost_s = self._shard_cost(by_shard)
                shards_read = snap.num_shards
            self.cache.put(
                sig, hits, snap.epoch, self.manager.latest_epoch,
                global_dep=True,
            )
            self._account(snap, cost_s, "top_k")
            return QueryResult(hits, snap.epoch, False, cost_s, shards_read)


class ServingBridge:
    """Publishes a pipeline consumer's state as epochs, batch by batch.

    Register via
    :meth:`repro.streaming.pipeline.ContinuousPipeline.add_batch_listener`;
    after every batch the pipeline calls the bridge with itself and the
    batch's metrics, and the bridge publishes the consumer's refreshed
    converged state as the next epoch.  Dead-lettered batches publish
    nothing: their delta was never applied, so the served state did not
    change and readers must not see an epoch for it.
    """

    def __init__(self, server: QueryServer) -> None:
        self.server = server
        #: epochs this bridge has published (one per committed batch).
        self.published = 0
        #: batches skipped because they were dead-lettered.
        self.skipped = 0

    def __call__(self, pipeline: Any, metrics: Any) -> None:
        """Batch-listener entry point (see class docstring)."""
        if getattr(metrics, "dead_lettered", False):
            self.skipped += 1
            return
        self.server.publish(pipeline.consumer.state())
        self.published += 1


__all__ = [
    "QueryResult",
    "QueryServer",
    "ServerStats",
    "ServingBridge",
]
