"""Pluggable compaction policies for the MRBG-Store.

The paper compacts a store by full offline reconstruction "when the
worker is idle" (§3.4) — one monolithic policy.  Real LSM-shaped stores
choose *when* that reconstruction pays for itself; this module makes the
trigger pluggable per store (and therefore per shard of a
:class:`~repro.mrbgraph.sharding.ShardedMRBGStore`):

- :class:`FullCompaction` (``"full"``, the default) — always compact
  when asked, the paper's behavior;
- :class:`SizeTieredCompaction` (``"size-tiered"``) — compact once
  enough similarly-sized sorted batches have stacked up (the classic
  STCS trigger: merging peers of one size tier amortizes the rewrite);
- :class:`LeveledCompaction` (``"leveled"``) — compact once dead bytes
  exceed a space-amplification budget or the batch stack grows past a
  read-amplification bound (the invariant leveled stores maintain).

Every policy still performs the same physical operation — the streaming
full rewrite of :func:`repro.mrbgraph.store.run_shard_compact` — so the
on-disk format and the byte-identical equivalence contract are
untouched; a policy only decides *whether* an idle-time
:meth:`~repro.mrbgraph.store.MRBGStore.maybe_compact` call rewrites now
or waits.  Select a policy with the ``REPRO_COMPACTION`` environment
variable, ``JobConf.compaction``, or per store via the ``compaction``
constructor argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Union

from repro.common.errors import StoreError


@dataclass(frozen=True)
class CompactionStats:
    """What a policy sees when deciding whether to compact one store.

    Attributes:
        num_batches: sorted batches currently stacked in the data file.
        file_size: physical data-file bytes (live + dead).
        live_bytes: bytes occupied by the latest version of every chunk.
        batch_live_bytes: live bytes per batch index (dead versions have
            already been superseded in the index, so a heavily-rewritten
            old batch shows up small).
    """

    num_batches: int
    file_size: int
    live_bytes: int
    batch_live_bytes: List[int] = field(default_factory=list)

    @property
    def dead_bytes(self) -> int:
        """Bytes occupied by superseded chunk versions."""
        return max(0, self.file_size - self.live_bytes)

    @property
    def dead_ratio(self) -> float:
        """Fraction of the data file occupied by superseded versions."""
        return self.dead_bytes / self.file_size if self.file_size else 0.0


class CompactionPolicy:
    """Decides when a store's idle-time reconstruction should run."""

    #: registry name (``REPRO_COMPACTION`` / ``JobConf.compaction`` value).
    name: str = "abstract"

    def should_compact(self, stats: CompactionStats) -> bool:
        """Whether an idle-time compaction opportunity should rewrite now."""
        raise NotImplementedError


class FullCompaction(CompactionPolicy):
    """The paper's monolithic policy: compact whenever there is anything to.

    Any store with more than one sorted batch (or any dead bytes) is
    rewritten on the next idle-time opportunity.
    """

    name = "full"

    def should_compact(self, stats: CompactionStats) -> bool:
        """True once the file holds several batches or any dead bytes."""
        return stats.num_batches > 1 or stats.dead_bytes > 0


class SizeTieredCompaction(CompactionPolicy):
    """Compact when one size tier holds ``min_batches`` similar batches.

    Batches are bucketed by live size: two batches share a tier when the
    larger is at most ``bucket_ratio`` times the smaller.  The rewrite
    triggers only when some tier accumulates ``min_batches`` members —
    until then merges keep appending cheap small batches, trading dead
    bytes for fewer rewrites (the STCS write-amplification bargain).
    """

    name = "size-tiered"

    def __init__(self, min_batches: int = 4, bucket_ratio: float = 2.0) -> None:
        if min_batches < 2:
            raise ValueError("min_batches must be at least 2")
        if bucket_ratio <= 1.0:
            raise ValueError("bucket_ratio must exceed 1.0")
        self.min_batches = min_batches
        self.bucket_ratio = bucket_ratio

    def should_compact(self, stats: CompactionStats) -> bool:
        """True when any size tier reaches ``min_batches`` members."""
        sizes = sorted(size for size in stats.batch_live_bytes if size > 0)
        if len(sizes) < self.min_batches:
            return False
        run_start = 0
        for i in range(1, len(sizes) + 1):
            if i == len(sizes) or sizes[i] > sizes[run_start] * self.bucket_ratio:
                if i - run_start >= self.min_batches:
                    return True
                run_start = i
        return False


class LeveledCompaction(CompactionPolicy):
    """Compact when space or read amplification exceeds its budget.

    Leveled stores bound how much of the file is dead weight
    (``max_dead_ratio``) and how many sorted runs a point read may have
    to consult (``max_batches``); crossing either bound triggers the
    rewrite back to a single level.
    """

    name = "leveled"

    def __init__(self, max_dead_ratio: float = 0.3, max_batches: int = 8) -> None:
        if not 0.0 < max_dead_ratio < 1.0:
            raise ValueError("max_dead_ratio must be within (0, 1)")
        if max_batches < 1:
            raise ValueError("max_batches must be positive")
        self.max_dead_ratio = max_dead_ratio
        self.max_batches = max_batches

    def should_compact(self, stats: CompactionStats) -> bool:
        """True when dead-ratio or batch-stack budgets are exceeded."""
        if stats.file_size == 0:
            return False
        return (
            stats.dead_ratio > self.max_dead_ratio
            or stats.num_batches > self.max_batches
        )


#: Registered policy constructors by name.
POLICIES: Dict[str, type] = {
    FullCompaction.name: FullCompaction,
    SizeTieredCompaction.name: SizeTieredCompaction,
    LeveledCompaction.name: LeveledCompaction,
}

#: Accepted wherever a compaction policy is configured.
CompactionSpec = Union[str, CompactionPolicy, None]


def compaction_policy(spec: CompactionSpec = None) -> CompactionPolicy:
    """Resolve a policy spec: a name, a live policy, or None (config default).

    Raises:
        StoreError: on an unknown policy name.
    """
    if isinstance(spec, CompactionPolicy):
        return spec
    if spec is None:
        from repro.common import config

        spec = config.DEFAULT_COMPACTION
    try:
        return POLICIES[spec]()
    except KeyError:
        raise StoreError(
            f"unknown compaction policy {spec!r}; expected one of "
            f"{sorted(POLICIES)}"
        ) from None


def stats_for_index(index, num_batches: int, file_size: int) -> CompactionStats:
    """Build :class:`CompactionStats` from a store's live index.

    Derives per-batch live bytes by grouping the index's chunk locations
    on their batch number — computable for any store (including a
    reopened one) without extra on-disk bookkeeping, so policies never
    change the file formats.
    """
    live = 0
    per_batch = [0] * max(num_batches, 0)
    for loc in index.values():
        live += loc.length
        if 0 <= loc.batch < len(per_batch):
            per_batch[loc.batch] += loc.length
    return CompactionStats(
        num_batches=num_batches,
        file_size=file_size,
        live_bytes=live,
        batch_live_bytes=per_batch,
    )
