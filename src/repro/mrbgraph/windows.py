"""Read-window policies for the MRBG-Store (§3.4 Algorithm 1, §5.2).

On a read-cache miss the store must decide how many bytes to read starting
at the missed chunk's position.  The paper evaluates four strategies
(Table 4):

- **index-only** — read exactly the missed chunk; minimum bytes, maximum
  I/O requests;
- **single fixed window** — one fixed-size window shared across the whole
  file; with the multi-batch files produced by iterative incremental jobs
  the window thrashes between batches and reads enormous amounts of
  obsolete data;
- **multiple fixed windows** — one fixed-size window per sorted batch;
- **multi-dynamic-window** — one window per batch whose extent is chosen
  by Algorithm 1: upcoming queried chunks in the *same* batch are folded
  into the window while the gap to the next chunk stays below the
  threshold ``T`` and the window fits the read cache.

Policies only *plan* reads; the store executes them and tracks metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.common import config


@dataclass(frozen=True)
class ChunkLocation:
    """Physical placement of one chunk version in the store file.

    Slotted: one instance exists per live chunk version in every store
    index and query plan, so the per-instance ``__dict__`` is worth
    eliminating on large stores.
    """

    __slots__ = ("offset", "length", "batch")

    offset: int
    length: int
    batch: int


@dataclass
class ReadPlan:
    """A planned physical read: ``nbytes`` starting at ``offset``."""

    __slots__ = ("offset", "nbytes", "batch")

    offset: int
    nbytes: int
    batch: int


class WindowPolicy(Protocol):
    """Strategy interface for read planning."""

    #: Whether the store keeps one cache window per batch (multi-window)
    #: or a single global window.
    per_batch_windows: bool

    def plan(
        self,
        target: ChunkLocation,
        upcoming_same_batch: Sequence[ChunkLocation],
        file_size: int,
    ) -> ReadPlan:
        """Plan the read that will satisfy a miss on ``target``.

        Args:
            target: location of the missed chunk.
            upcoming_same_batch: locations of later queried chunks whose
                *latest version* lives in the same batch as ``target``,
                in query (== offset) order.
            file_size: current store file size, to cap the window.
        """
        ...


def _cap(offset: int, nbytes: int, file_size: int) -> ReadPlan:
    nbytes = max(0, min(nbytes, file_size - offset))
    return ReadPlan(offset=offset, nbytes=nbytes, batch=-1)


class IndexOnlyPolicy:
    """Read exactly the missed chunk (one I/O per chunk)."""

    per_batch_windows = False

    def plan(
        self,
        target: ChunkLocation,
        upcoming_same_batch: Sequence[ChunkLocation],
        file_size: int,
    ) -> ReadPlan:
        """Plan a read covering exactly the missed chunk."""
        plan = _cap(target.offset, target.length, file_size)
        plan.batch = target.batch
        return plan


class SingleFixedWindowPolicy:
    """One global fixed-size window.

    Effective for single-batch files; pathological for multi-batch files
    because consecutive queries alternate between batches, evicting the
    window and re-reading ``window_size`` bytes almost every time.
    """

    per_batch_windows = False

    def __init__(self, window_size: int = 4 * config.MB) -> None:
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        self.window_size = window_size

    def plan(
        self,
        target: ChunkLocation,
        upcoming_same_batch: Sequence[ChunkLocation],
        file_size: int,
    ) -> ReadPlan:
        """Plan one ``window_size`` read starting at the missed chunk."""
        nbytes = max(self.window_size, target.length)
        plan = _cap(target.offset, nbytes, file_size)
        plan.batch = target.batch
        return plan


class MultiFixedWindowPolicy:
    """One fixed-size window per sorted batch (§5.2, "multi-fix-window")."""

    per_batch_windows = True

    def __init__(self, window_size: int = 512 * config.KB) -> None:
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        self.window_size = window_size

    def plan(
        self,
        target: ChunkLocation,
        upcoming_same_batch: Sequence[ChunkLocation],
        file_size: int,
    ) -> ReadPlan:
        """Plan one ``window_size`` read in the missed chunk's batch."""
        nbytes = max(self.window_size, target.length)
        plan = _cap(target.offset, nbytes, file_size)
        plan.batch = target.batch
        return plan


class MultiDynamicWindowPolicy:
    """Algorithm 1 with one dynamically-sized window per batch (§5.2).

    Starting from the missed chunk, later queried chunks *in the same
    batch* are folded into the window while the file gap to each next
    chunk is below ``gap_threshold`` (``T``, default 100 KB) and the window
    still fits the read cache; chunks whose latest version lives in another
    batch are skipped, exactly as Fig 7 illustrates.
    """

    per_batch_windows = True

    def __init__(
        self,
        gap_threshold: int = config.DEFAULT_GAP_THRESHOLD,
        read_cache_size: int = config.DEFAULT_READ_CACHE_SIZE,
    ) -> None:
        if gap_threshold < 0:
            raise ValueError("gap_threshold must be non-negative")
        if read_cache_size <= 0:
            raise ValueError("read_cache_size must be positive")
        self.gap_threshold = gap_threshold
        self.read_cache_size = read_cache_size

    def plan(
        self,
        target: ChunkLocation,
        upcoming_same_batch: Sequence[ChunkLocation],
        file_size: int,
    ) -> ReadPlan:
        """Extend the window over upcoming same-batch chunks (Algorithm 1)."""
        window = target.length
        end = target.offset + target.length
        for nxt in upcoming_same_batch:
            if nxt.offset < end:
                # Out-of-order duplicate (should not happen in a sorted
                # batch); stop extending rather than read backwards.
                break
            gap = nxt.offset - end
            if gap >= self.gap_threshold:
                break
            if window + gap + nxt.length > self.read_cache_size:
                break
            window += gap + nxt.length
            end = nxt.offset + nxt.length
        plan = _cap(target.offset, window, file_size)
        plan.batch = target.batch
        return plan

