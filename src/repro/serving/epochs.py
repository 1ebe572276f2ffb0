"""Epoch/snapshot manager: consistent read views over evolving state.

The serving layer's core problem is that the streaming pipeline keeps
mutating the converged outputs while readers are mid-query.  This module
solves it with *epochs*: every committed micro-batch publishes a new
immutable :class:`EpochSnapshot`, and a query pins one epoch for its
whole lifetime — it can never observe half of a delta batch, no matter
how ingestion interleaves with it (the snapshot-isolation contract of
Fegaras' incremental query serving, PAPERS.md).

Snapshots are cheap because they share structure.  The served key space
is partitioned over *serving shards* by
:func:`~repro.common.hashing.partition_for` (the placement the engines
and the MRBG-Store use), and each shard's view at an epoch is a
**copy-on-write overlay chain**: epoch ``N`` stores only the keys the
batch actually changed, layered over epoch ``N-1``'s overlay.  A shard
untouched by a batch shares its previous overlay object outright, so
publishing costs O(changed keys), not O(state).  Chains are bounded: the
manager flattens the oldest live overlay in place once it grows past
``collapse_depth`` (readers stay correct mid-flatten because the merged
content is written before the parent link is cut).

Retention is pin-aware: the manager keeps the newest ``retain`` epochs
and retires older ones, but an epoch pinned by an in-flight query is
never retired — queries hold their view until they release it.

The manager also maintains the serving **top-k** incrementally (issue
requirement: "updated per delta batch, not recomputed"): a candidate
list of the ``track_top * slack`` best ``(value, key)`` ranks is
repaired per batch from the touched keys alone, with a *floor* bound on
every excluded key's rank proving exactness; only when removals eat
through the slack does the manager fall back to one full rebuild
(counted in :attr:`EpochManager.topk_rebuilds`).
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from itertools import accumulate
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.common import config
from repro.common.errors import EpochRetired, ServingError, UnknownEpoch
from repro.common.hashing import partition_for
from repro.common.kvpair import sort_key
from repro.common.sizeof import record_size

#: Tombstone marking a key deleted in an overlay (never exposed).
_DELETED = object()

#: Listener signature: called with each newly published snapshot.
EpochListener = Callable[["EpochSnapshot"], None]

#: One overlay's live pairs as parallel K2-ordered columns:
#: ``(sort_keys, keys, values, cum)`` where ``cum[i]`` is the total
#: :func:`~repro.common.sizeof.record_size` of the first ``i`` pairs
#: (``len(cum) == len(keys) + 1``), so any slice's bytes are one
#: subtraction.
Columns = Tuple[List[Tuple], List[Any], List[Any], array]

#: Upper end of a prefix scan's range: no string starting with the
#: prefix sorts after ``prefix + _MAX_CHAR``.
_MAX_CHAR = "\U0010ffff"


class _ShardOverlay:
    """One serving shard's view at one epoch: changed keys over a parent.

    Lookups walk the chain newest-to-oldest; :data:`_DELETED` entries
    shadow older values.  Instances are logically immutable once
    published — :meth:`flatten` only rewrites the representation (merged
    ``changed`` dict, no parent) without changing the mapping, and does
    so in a reader-safe order: the merged dict is attached *before* the
    parent link is dropped, so a concurrent lookup sees either
    representation but the same values.
    """

    __slots__ = ("base", "changed", "_columns")

    def __init__(
        self,
        changed: Dict[Any, Any],
        base: Optional["_ShardOverlay"] = None,
    ) -> None:
        self.changed = changed
        self.base = base
        #: lazy cache of :data:`Columns`, built by the first scan; safe
        #: to keep across :meth:`flatten` because the mapping never
        #: changes.
        self._columns: Optional[Columns] = None

    def get(self, key: Any, default: Any = None) -> Any:
        """The key's value at this overlay's epoch (walks the chain)."""
        node: Optional[_ShardOverlay] = self
        while node is not None:
            changed = node.changed
            if key in changed:
                value = changed[key]
                return default if value is _DELETED else value
            node = node.base
        return default

    def __contains__(self, key: Any) -> bool:
        node: Optional[_ShardOverlay] = self
        while node is not None:
            changed = node.changed
            if key in changed:
                return changed[key] is not _DELETED
            node = node.base
        return False

    def depth(self) -> int:
        """Number of overlay links a worst-case lookup walks."""
        node: Optional[_ShardOverlay] = self
        count = 0
        while node is not None:
            count += 1
            node = node.base
        return count

    def materialize(self) -> Dict[Any, Any]:
        """The full ``key -> value`` mapping at this overlay's epoch."""
        chain: List[Dict[Any, Any]] = []
        node: Optional[_ShardOverlay] = self
        while node is not None:
            chain.append(node.changed)
            node = node.base
        merged: Dict[Any, Any] = {}
        for changed in reversed(chain):
            merged.update(changed)
        return {k: v for k, v in merged.items() if v is not _DELETED}

    def columns(self) -> Columns:
        """This overlay's :data:`Columns`, built from one materialize.

        Built on first use and cached; publishing never calls this, so
        an epoch nobody scans costs nothing here.  Concurrent first
        calls may both build — they store equal columns.
        """
        cached = self._columns
        if cached is None:
            live = self.materialize()
            unsorted = list(live)
            sks = list(map(sort_key, unsorted))
            order = sorted(range(len(sks)), key=sks.__getitem__)
            keys = [unsorted[i] for i in order]
            values = [live[key] for key in keys]
            cum = array("q", accumulate(map(record_size, keys, values), initial=0))
            cached = ([sks[i] for i in order], keys, values, cum)
            self._columns = cached
        return cached

    def flatten(self) -> None:
        """Fold the whole chain into this node (bounds lookup cost).

        Reader-safe: ``changed`` is replaced by the merged mapping first,
        then ``base`` is cut — a concurrent lookup interleaving between
        the two assignments reads the merged dict (complete) or falls
        through to the old parent (whose values the merged dict agrees
        with), never a third state.
        """
        if self.base is None:
            return
        chain: List[Dict[Any, Any]] = []
        node: Optional[_ShardOverlay] = self
        while node is not None:
            chain.append(node.changed)
            node = node.base
        merged: Dict[Any, Any] = {}
        for changed in reversed(chain):
            merged.update(changed)
        merged = {k: v for k, v in merged.items() if v is not _DELETED}
        self.changed = merged
        self.base = None


def _rank(key: Any, value: Any) -> Tuple[Tuple, Tuple]:
    """Total order for top-k: value first, key as deterministic tiebreak."""
    return (sort_key(value), sort_key(key))


def prefix_range(prefix: str) -> Tuple[str, str]:
    """The key range ``(lo, hi)`` of the strings starting with ``prefix``.

    Only ``str`` keys sort between two strings, and a string ``s`` with
    ``prefix <= s <= prefix + _MAX_CHAR`` must start with ``prefix``
    (at the first differing position it would sort below ``prefix`` or
    above ``hi``), so a range scan over these bounds needs no filter.
    """
    if not isinstance(prefix, str):
        raise ServingError("prefix_scan requires a string prefix")
    return prefix, prefix + _MAX_CHAR


class EpochSnapshot:
    """An immutable, consistent view of the served state at one epoch.

    Snapshots are handed out by :class:`EpochManager` and stay readable
    for as long as they are pinned — concurrent publishes only stack new
    overlays on top, they never mutate what this snapshot can see.
    """

    __slots__ = ("epoch", "num_shards", "touched", "num_keys", "topk",
                 "topk_complete", "_overlays")

    def __init__(
        self,
        epoch: int,
        num_shards: int,
        overlays: Tuple[_ShardOverlay, ...],
        touched: frozenset,
        num_keys: int,
        topk: Tuple[Tuple[Any, Any], ...],
        topk_complete: bool,
    ) -> None:
        #: the epoch sequence number (0 = the initial publish).
        self.epoch = epoch
        #: serving shards the key space is partitioned over.
        self.num_shards = num_shards
        #: keys this epoch's batch changed or deleted (drives cache
        #: invalidation; empty for a no-change commit).
        self.touched = touched
        #: live keys at this epoch, across all serving shards.
        self.num_keys = num_keys
        #: the incrementally maintained ``(key, value)`` top list, best
        #: first, ranked by (value desc, key desc) under
        #: :func:`repro.common.kvpair.sort_key` order.
        self.topk = topk
        #: whether :attr:`topk` covers *every* live key (small states).
        self.topk_complete = topk_complete
        self._overlays = overlays

    # -------------------------------------------------------------- #
    # reads                                                          #
    # -------------------------------------------------------------- #

    def shard_for(self, key: Any) -> int:
        """The serving shard owning ``key``: ``partition_for(key, n)``."""
        return partition_for(key, self.num_shards)

    def get(self, key: Any, default: Any = None) -> Any:
        """Point lookup at this epoch."""
        return self._overlays[partition_for(key, self.num_shards)].get(key, default)

    def __contains__(self, key: Any) -> bool:
        return key in self._overlays[partition_for(key, self.num_shards)]

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """Every live ``(key, value)`` pair: shard by shard, in shard-id
        order, and K2 order within a shard (not globally K2-ordered
        when there is more than one serving shard)."""
        for overlay in self._overlays:
            _, keys, values, _ = overlay.columns()
            yield from zip(keys, values)

    def range_shards(self, lo: Any, hi: Any) -> Sequence[int]:
        """Serving shards that can hold keys in ``[lo, hi]``: all of them,
        since hash placement scatters any range over every shard."""
        return range(self.num_shards)

    def scan(
        self, lo: Any, hi: Any, limit: Optional[int] = None
    ) -> Tuple[List[Tuple[Any, Any]], Dict[int, int]]:
        """A range scan's hits plus the bytes they occupy per shard.

        Returns ``(hits, bytes_by_shard)``: ``hits`` is what
        :meth:`range_scan` answers, and ``bytes_by_shard`` maps *every*
        shard of :meth:`range_shards` (hit or not) to the total
        ``record_size`` of its returned pairs.  Each shard contributes
        one bisected slice of its columns, charged as a difference of
        byte prefix sums.  Slices from one shard are returned as they
        are; slices from several are merged by one stable sort on the
        precomputed sort keys (shard order breaks ties), and only a
        ``limit`` that cuts the merged run pays per-hit byte lookups.
        """
        lo_sk, hi_sk = sort_key(lo), sort_key(hi)
        if lo_sk > hi_sk:
            raise ServingError(f"empty range: {lo!r} > {hi!r}")
        nbytes: Dict[int, int] = {}
        runs = []
        total = 0
        for sid in self.range_shards(lo, hi):
            cols = self._overlays[sid].columns()
            run_sks, _, _, cum = cols
            start = bisect_left(run_sks, lo_sk)
            stop = bisect_right(run_sks, hi_sk, start)
            nbytes[sid] = cum[stop] - cum[start]
            if start < stop:
                runs.append((sid, start, stop, cols))
                total += stop - start
        # hits kept under ``limit``, sliced as ``hits[:limit]`` would be
        take = total if limit is None else len(range(total)[:limit])
        if not runs:
            return [], nbytes
        if len(runs) == 1:
            sid, start, _, (_, keys, values, cum) = runs[0]
            stop = start + take
            nbytes[sid] = cum[stop] - cum[start]
            return list(zip(keys[start:stop], values[start:stop])), nbytes
        sks: List[Tuple] = []
        pairs: List[Tuple[Any, Any]] = []
        for _, start, stop, (run_sks, keys, values, _) in runs:
            sks += run_sks[start:stop]
            pairs += zip(keys[start:stop], values[start:stop])
        order = sorted(range(total), key=sks.__getitem__)
        if take < total:
            order = order[:take]
            owner = [
                (sid, cum, i)
                for sid, start, stop, (_, _, _, cum) in runs
                for i in range(start, stop)
            ]
            for sid, _, _, _ in runs:
                nbytes[sid] = 0
            for i in order:
                sid, cum, j = owner[i]
                nbytes[sid] += cum[j + 1] - cum[j]
        return [pairs[i] for i in order], nbytes

    def range_scan(
        self, lo: Any, hi: Any, limit: Optional[int] = None
    ) -> List[Tuple[Any, Any]]:
        """All pairs with ``lo <= key <= hi`` in ``sort_key`` order."""
        return self.scan(lo, hi, limit)[0]

    def prefix_scan(
        self, prefix: str, limit: Optional[int] = None
    ) -> List[Tuple[Any, Any]]:
        """All pairs whose *string* key starts with ``prefix``."""
        lo, hi = prefix_range(prefix)
        return self.scan(lo, hi, limit)[0]

    def top_k(self, k: int) -> List[Tuple[Any, Any]]:
        """The ``k`` best pairs by (value desc, key desc) rank.

        Served from the incrementally maintained candidate list when it
        is deep enough; a ``k`` beyond the tracked depth falls back to a
        full scan of the snapshot (exact, just not incremental).
        """
        if k <= 0:
            return []
        if k <= len(self.topk) or self.topk_complete:
            return list(self.topk[:k])
        ranked = sorted(
            self.items(), key=lambda kv: _rank(kv[0], kv[1]), reverse=True
        )
        return ranked[:k]

    def scan_bytes(self, sid: int) -> int:
        """Approximate encoded bytes of one shard's live pairs.

        Used by the query server to charge full-shard reads through the
        cost model: the last byte prefix sum of the shard's columns
        (the library's exact-size estimator over every live pair).
        """
        return self._overlays[sid].columns()[3][-1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EpochSnapshot epoch={self.epoch} keys={self.num_keys} "
            f"shards={self.num_shards}>"
        )


class EpochManager:
    """Publishes, retains and retires the epochs queries read from.

    One manager serves one logical result set (one streaming job's
    output).  ``publish`` is called with the *full* refreshed state
    after each committed micro-batch (the serving bridge does this); the
    manager diffs it against its live mirror, stacks the per-shard
    overlays, repairs the top-k candidates and hands back the new
    :class:`EpochSnapshot`.  ``publish_delta`` skips the diff for
    callers that already know the changed keys.

    Thread safety: ``publish*`` and pin bookkeeping serialize on one
    lock; reads (snapshot lookups, scans, top-k) are lock-free against
    immutable snapshots, so queries never block ingestion and vice
    versa.
    """

    def __init__(
        self,
        num_shards: Optional[int] = None,
        retain: Optional[int] = None,
        track_top: Optional[int] = None,
        topk_slack: int = 2,
        collapse_depth: int = 8,
    ) -> None:
        self.num_shards = num_shards or 1
        if self.num_shards < 1:
            raise ServingError("num_shards must be positive")
        self.retain = config.DEFAULT_SERVING_RETAIN if retain is None else retain
        if self.retain < 1:
            raise ServingError("retain must be at least 1")
        self.track_top = (
            config.DEFAULT_SERVING_TOPK if track_top is None else track_top
        )
        if self.track_top < 0:
            raise ServingError("track_top must be non-negative")
        if topk_slack < 1:
            raise ServingError("topk_slack must be at least 1")
        self.topk_slack = topk_slack
        if collapse_depth < 1:
            raise ServingError("collapse_depth must be at least 1")
        self.collapse_depth = collapse_depth
        #: full rebuilds of the top-k candidate list (removals ate
        #: through the slack); the incremental-maintenance health metric.
        self.topk_rebuilds = 0
        #: epochs retired by the retention window so far.
        self.retired_epochs = 0

        self._lock = threading.Lock()
        self._live: Dict[Any, Any] = {}
        self._snapshots: Dict[int, EpochSnapshot] = {}
        self._pins: Dict[int, int] = {}
        self._latest_epoch = -1
        self._oldest_epoch = 0
        self._overlays: Tuple[_ShardOverlay, ...] = tuple(
            _ShardOverlay({}) for _ in range(self.num_shards)
        )
        #: top-k candidates as (rank, key, value), best first.
        self._candidates: List[Tuple[Tuple, Any, Any]] = []
        #: best rank ever excluded from the candidates since the last
        #: rebuild — an upper bound on every non-candidate key's rank.
        self._floor: Optional[Tuple] = None
        self._listeners: List[EpochListener] = []

    # -------------------------------------------------------------- #
    # publishing                                                     #
    # -------------------------------------------------------------- #

    def add_listener(self, listener: EpochListener) -> None:
        """Register a callback invoked with every published snapshot.

        Listeners run inside the publish critical section: no reader can
        pin the new epoch until all of them returned (the result cache
        drops what the epoch made stale here), so a listener must not
        call back into the manager.
        """
        self._listeners.append(listener)

    def publish(self, state: Mapping[Any, Any]) -> EpochSnapshot:
        """Commit ``state`` as the next epoch (diffed against the last).

        Computes exactly which keys changed or disappeared since the
        previous epoch — that touched set is what drives cache
        invalidation downstream — then publishes.  A state identical to
        the previous epoch still commits a new (no-change) epoch, so
        epoch numbers track committed micro-batches one to one.
        """
        with self._lock:
            live = self._live
            changed = {
                k: v
                for k, v in state.items()
                if k not in live or live[k] != v
            }
            deleted = [k for k in live if k not in state]
            snapshot = self._publish_locked(changed, deleted)
            self._notify(snapshot)
        return snapshot

    def publish_delta(
        self,
        changed: Mapping[Any, Any],
        deleted: Iterable[Any] = (),
    ) -> EpochSnapshot:
        """Commit the next epoch from an explicit change set.

        For callers that already know which keys a batch touched;
        ``changed`` maps keys to their new values and ``deleted`` lists
        keys to remove.  Unknown deletions are ignored.
        """
        with self._lock:
            live = self._live
            changed = {
                k: v
                for k, v in changed.items()
                if k not in live or live[k] != v
            }
            deleted = [k for k in deleted if k in live]
            snapshot = self._publish_locked(changed, deleted)
            self._notify(snapshot)
        return snapshot

    def _notify(self, snapshot: EpochSnapshot) -> None:
        for listener in self._listeners:
            listener(snapshot)

    def _publish_locked(
        self, changed: Dict[Any, Any], deleted: List[Any]
    ) -> EpochSnapshot:
        num_shards = self.num_shards
        per_shard: Dict[int, Dict[Any, Any]] = {}
        for key, value in changed.items():
            per_shard.setdefault(partition_for(key, num_shards), {})[key] = value
        for key in deleted:
            per_shard.setdefault(partition_for(key, num_shards), {})[key] = _DELETED

        overlays = list(self._overlays)
        for sid, shard_changed in per_shard.items():
            overlays[sid] = _ShardOverlay(shard_changed, base=overlays[sid])
        self._overlays = tuple(overlays)

        self._live.update(changed)
        for key in deleted:
            self._live.pop(key, None)

        touched = frozenset(changed) | frozenset(deleted)
        topk, complete = self._update_topk(changed, deleted, touched)

        epoch = self._latest_epoch + 1
        snapshot = EpochSnapshot(
            epoch=epoch,
            num_shards=num_shards,
            overlays=self._overlays,
            touched=touched,
            num_keys=len(self._live),
            topk=topk,
            topk_complete=complete,
        )
        self._snapshots[epoch] = snapshot
        self._latest_epoch = epoch
        self._retire_excess_locked()
        self._collapse_locked()
        return snapshot

    # -------------------------------------------------------------- #
    # top-k maintenance                                              #
    # -------------------------------------------------------------- #

    def _rebuild_candidates_locked(self, capacity: int) -> None:
        ranked = sorted(
            ((_rank(k, v), k, v) for k, v in self._live.items()),
            reverse=True,
        )
        self._candidates = ranked[:capacity]
        self._floor = ranked[capacity][0] if len(ranked) > capacity else None
        self.topk_rebuilds += 1

    def _update_topk(
        self,
        changed: Dict[Any, Any],
        deleted: List[Any],
        touched: frozenset,
    ) -> Tuple[Tuple[Tuple[Any, Any], ...], bool]:
        """Repair the candidate list from the touched keys alone.

        Exactness argument: every non-candidate key's rank is bounded by
        ``_floor`` (it was either trimmed past the capacity at some
        epoch, or excluded by a rebuild — both record the bound), and an
        *untouched* key's rank never changes.  So as long as the
        ``track_top``-th candidate outranks the floor, the first
        ``track_top`` candidates are exactly the global top ranks.  When
        that stops holding (removals or value drops ate the slack), one
        full rebuild restores it.
        """
        track = self.track_top
        if track <= 0:
            return (), False
        capacity = track * self.topk_slack
        if touched:
            cands = [c for c in self._candidates if c[1] not in touched]
            for key, value in changed.items():
                cands.append((_rank(key, value), key, value))
            cands.sort(reverse=True)
            if len(cands) > capacity:
                trimmed_best = cands[capacity][0]
                if self._floor is None or trimmed_best > self._floor:
                    self._floor = trimmed_best
                cands = cands[:capacity]
            self._candidates = cands
        cands = self._candidates
        total = len(self._live)
        if total > len(cands):
            exact = (
                len(cands) >= track
                and self._floor is not None
                and cands[track - 1][0] > self._floor
            )
            if not exact:
                self._rebuild_candidates_locked(capacity)
                cands = self._candidates
        topk = tuple((key, value) for _, key, value in cands[:track])
        return topk, len(cands) == total

    # -------------------------------------------------------------- #
    # retention, pinning                                             #
    # -------------------------------------------------------------- #

    def _retire_excess_locked(self) -> None:
        while len(self._snapshots) > self.retain:
            oldest = self._oldest_epoch
            if oldest >= self._latest_epoch:
                break
            if self._pins.get(oldest, 0) > 0:
                break  # pinned epochs hold everything behind them
            self._snapshots.pop(oldest, None)
            self._oldest_epoch = oldest + 1
            self.retired_epochs += 1

    def _collapse_locked(self) -> None:
        oldest = self._snapshots.get(self._oldest_epoch)
        if oldest is None:
            return
        for overlay in oldest._overlays:
            if overlay.depth() > self.collapse_depth:
                overlay.flatten()

    @property
    def latest_epoch(self) -> int:
        """The newest published epoch id (-1 before the first publish)."""
        return self._latest_epoch

    @property
    def oldest_epoch(self) -> int:
        """The oldest epoch still queryable."""
        return self._oldest_epoch

    @property
    def num_live_epochs(self) -> int:
        """Snapshots currently retained (retention window + pins)."""
        return len(self._snapshots)

    def latest(self) -> EpochSnapshot:
        """The newest snapshot (raises before the first publish)."""
        return self.snapshot(None)

    def snapshot(self, epoch: Optional[int] = None) -> EpochSnapshot:
        """The snapshot at ``epoch`` (None = latest), without pinning."""
        with self._lock:
            return self._resolve_locked(epoch)

    def _resolve_locked(self, epoch: Optional[int]) -> EpochSnapshot:
        if self._latest_epoch < 0:
            raise UnknownEpoch("no epoch has been published yet")
        if epoch is None:
            epoch = self._latest_epoch
        snapshot = self._snapshots.get(epoch)
        if snapshot is None:
            if 0 <= epoch < self._oldest_epoch:
                raise EpochRetired(
                    f"epoch {epoch} was retired (oldest live epoch is "
                    f"{self._oldest_epoch}; raise the retention window or "
                    f"pin earlier)"
                )
            raise UnknownEpoch(f"epoch {epoch} was never published")
        return snapshot

    @contextmanager
    def pinned(self, epoch: Optional[int] = None) -> Iterator[EpochSnapshot]:
        """Pin an epoch for the duration of a query.

        A pinned epoch (and everything newer) survives retention until
        the pin is released, so the reader's view cannot be collapsed
        from under it.
        """
        with self._lock:
            snapshot = self._resolve_locked(epoch)
            self._pins[snapshot.epoch] = self._pins.get(snapshot.epoch, 0) + 1
        try:
            yield snapshot
        finally:
            with self._lock:
                count = self._pins.get(snapshot.epoch, 0) - 1
                if count <= 0:
                    self._pins.pop(snapshot.epoch, None)
                else:
                    self._pins[snapshot.epoch] = count
                self._retire_excess_locked()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EpochManager epochs=[{self._oldest_epoch}, "
            f"{self._latest_epoch}] shards={self.num_shards}>"
        )
