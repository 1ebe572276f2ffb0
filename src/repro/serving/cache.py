"""LRU result cache with delta-driven invalidation.

The cache sits in front of the query server and memoises whole query
*results* (a point read, a multi-get, a scan, a top-k) keyed by a
deterministic query signature.  What makes it safe under continuous
ingestion is that invalidation is *delta-driven*: every published epoch
carries the exact set of keys its micro-batch touched, and the cache
drops precisely the entries whose answers could depend on those keys —
point/multi entries via a key→signatures dependency index, range/prefix
entries via their ``sort_key`` bounds, and top-k entries whenever any
key moved (a changed value anywhere can reorder the top; Elghandour et
al.'s view-maintenance framing, PAPERS.md).

Correctness contract: a hit is served only to readers pinned at an
epoch **at or after** the entry's compute epoch.  Combined with exact
invalidation this guarantees a cached answer equals a fresh read at the
reader's pinned epoch — an entry that survived publishes ``e+1..p`` was
untouched by them, so the answer at ``p`` is unchanged; readers pinned
*before* the entry's epoch bypass the cache (their older view may
legitimately differ).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.common import config
from repro.common.kvpair import sort_key


@dataclass
class CacheStats:
    """Counters describing the cache's effectiveness so far."""

    #: lookups answered from the cache.
    hits: int = 0
    #: lookups that missed (absent, stale-epoch, or invalidated).
    misses: int = 0
    #: entries dropped by delta-driven invalidation.
    invalidations: int = 0
    #: entries dropped by LRU capacity pressure.
    evictions: int = 0
    #: puts rejected because a newer epoch published mid-computation.
    stale_puts: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class _Entry:
    """One cached query result and what it depends on."""

    value: Any
    #: epoch the result was computed at.
    epoch: int
    #: exact keys the result depends on (point/multi lookups).
    deps: Optional[FrozenSet[Any]] = None
    #: ``sort_key`` bounds the result covers (range/prefix scans).
    bounds: Optional[Tuple[Tuple, Tuple]] = None
    #: whether *any* touched key invalidates the result (top-k).
    global_dep: bool = False
    #: dependency-index back-references, for O(1) unlinking.
    indexed_keys: Tuple[Any, ...] = field(default=())


class ResultCache:
    """Bounded LRU of query results, invalidated by published deltas.

    Thread-safe; all operations serialize on one internal lock.  The
    server wires :meth:`invalidate` as an epoch listener so every
    published snapshot's ``touched`` set prunes the cache before any
    query can observe the new epoch.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.capacity = (
            config.DEFAULT_SERVING_CACHE if capacity is None else capacity
        )
        if self.capacity < 0:
            raise ValueError("cache capacity must be >= 0")
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        #: key -> signatures of point/multi entries depending on it.
        self._by_key: Dict[Any, Set[str]] = {}
        #: signatures of entries with sort_key bounds (scans).
        self._ranged: Set[str] = set()
        #: signatures of entries invalidated by any change (top-k).
        self._global: Set[str] = set()

    def __len__(self) -> int:
        return len(self._entries)

    # -------------------------------------------------------------- #
    # lookup / insert                                                #
    # -------------------------------------------------------------- #

    def get(self, sig: str, pinned_epoch: int) -> Tuple[bool, Any]:
        """``(hit, value)`` for a reader pinned at ``pinned_epoch``.

        Only entries computed at or before the reader's epoch are
        eligible (see the module contract); a hit refreshes LRU
        recency.
        """
        with self._lock:
            entry = self._entries.get(sig)
            if entry is None or entry.epoch > pinned_epoch:
                self.stats.misses += 1
                return False, None
            self._entries.move_to_end(sig)
            self.stats.hits += 1
            return True, entry.value

    def put(
        self,
        sig: str,
        value: Any,
        epoch: int,
        latest_epoch: int,
        deps: Optional[FrozenSet[Any]] = None,
        bounds: Optional[Tuple[Tuple, Tuple]] = None,
        global_dep: bool = False,
    ) -> bool:
        """Insert a result computed at ``epoch``; returns acceptance.

        The put is *rejected* when a newer epoch has already published
        (``epoch < latest_epoch``): the invalidation for that publish
        has already run, so accepting the entry could cache an answer
        the delta just made stale.  The caller passes the manager's
        current latest epoch, read under no lock — monotonicity makes
        the race benign (a concurrent publish only makes the check
        stricter).
        """
        if self.capacity == 0:
            return False
        with self._lock:
            if epoch < latest_epoch:
                self.stats.stale_puts += 1
                return False
            if sig in self._entries:
                self._unlink_locked(sig)
            indexed: Tuple[Any, ...] = ()
            if deps is not None:
                indexed = tuple(deps)
                for key in indexed:
                    self._by_key.setdefault(key, set()).add(sig)
            elif bounds is not None:
                self._ranged.add(sig)
            elif global_dep:
                self._global.add(sig)
            self._entries[sig] = _Entry(
                value=value,
                epoch=epoch,
                deps=deps,
                bounds=bounds,
                global_dep=global_dep,
                indexed_keys=indexed,
            )
            self._entries.move_to_end(sig)
            while len(self._entries) > self.capacity:
                victim = next(iter(self._entries))
                self._unlink_locked(victim)
                del self._entries[victim]
                self.stats.evictions += 1
            return True

    # -------------------------------------------------------------- #
    # invalidation                                                   #
    # -------------------------------------------------------------- #

    def invalidate(self, touched: FrozenSet[Any]) -> int:
        """Drop every entry whose answer may depend on ``touched``.

        Point/multi entries die iff they depend on a touched key; scan
        entries die iff a touched key's ``sort_key`` falls inside their
        bounds; top-k (global) entries die whenever anything was
        touched.  Returns the number of entries dropped.
        """
        if not touched:
            return 0
        with self._lock:
            doomed: Set[str] = set()
            for key in touched:
                doomed.update(self._by_key.get(key, ()))
            if self._ranged:
                # One sort, then per entry: the smallest touched sort key
                # at or above ``lo`` is inside the bounds iff any is.
                touched_sks = sorted(map(sort_key, touched))
                for sig in self._ranged:
                    lo, hi = self._entries[sig].bounds  # type: ignore[misc]
                    at = bisect_left(touched_sks, lo)
                    if at < len(touched_sks) and touched_sks[at] <= hi:
                        doomed.add(sig)
            doomed.update(self._global)
            for sig in doomed:
                self._unlink_locked(sig)
                self._entries.pop(sig, None)
            self.stats.invalidations += len(doomed)
            return len(doomed)

    def on_snapshot(self, snapshot: Any) -> None:
        """Epoch-listener adapter: invalidate from a published snapshot."""
        self.invalidate(snapshot.touched)

    def clear(self) -> None:
        """Drop every entry (stats are preserved)."""
        with self._lock:
            self._entries.clear()
            self._by_key.clear()
            self._ranged.clear()
            self._global.clear()

    def _unlink_locked(self, sig: str) -> None:
        """Remove a signature's dependency-index references (not the entry)."""
        entry = self._entries.get(sig)
        if entry is None:
            return
        for key in entry.indexed_keys:
            sigs = self._by_key.get(key)
            if sigs is not None:
                sigs.discard(sig)
                if not sigs:
                    del self._by_key[key]
        self._ranged.discard(sig)
        self._global.discard(sig)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResultCache {len(self._entries)}/{self.capacity} "
            f"hit_rate={self.stats.hit_rate:.2f}>"
        )


def entry_signature(kind: str, args: Tuple[Any, ...]) -> str:
    """Deterministic cache signature for a query ``kind`` + arguments."""
    return f"{kind}:{args!r}"


__all__ = ["CacheStats", "ResultCache", "entry_signature"]
