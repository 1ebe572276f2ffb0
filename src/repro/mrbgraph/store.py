"""The MRBG-Store: preservation and retrieval of fine-grain MRBGraph state.

This is a *real* storage engine (§3.4): chunks live in an append-only
binary file on local disk, a hash index maps each ``K2`` to its latest
chunk position, reads go through genuine file handles, and newly merged
chunks are buffered in memory and appended sequentially.  Obsolete chunk
versions stay in the file until an offline compaction rewrites it —
consequently an iterative incremental job leaves *multiple sorted batches*
of chunks in the file, which is exactly the access pattern the
multi-dynamic-window query strategy (§5.2) optimizes.

Simulated time (`metrics.read_time_s`, `metrics.write_time_s`) is charged
from the cost model per physical I/O, while I/O request counts and byte
counts are measured facts — Table 4 reports all three.

Durability (see :mod:`repro.mrbgraph.wal`): every mutation is journaled
to a per-store write-ahead log before it touches ``mrbg.dat``, the index
is swapped atomically, and :meth:`MRBGStore.open` replays the log so a
store killed mid-merge or mid-compaction always reopens either at the
state before the interrupted operation or at the state after it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.cluster.costmodel import CostModel
from repro.common import config
from repro.common.errors import (
    ChunkKeyMismatch,
    DuplicateChunkKey,
    StoreClosedError,
    StoreError,
)
from repro.common.kvpair import sort_key
from repro.common.serialization import decode_many, encode, encode_many
from repro.faults.injection import CrashDirective, InjectedCrash
from repro.mrbgraph.chunk import ColumnarEdges, decode_chunk, decoded_columns, encode_chunk
from repro.mrbgraph.graph import DeltaEdge, Edge, apply_delta
from repro.mrbgraph.wal import (
    OP_BEGIN,
    OP_COMMIT,
    OP_COMPACT_BEGIN,
    OP_COMPACT_COMMIT,
    OP_DELETE,
    OP_PUT,
    WAL_FILE,
    WriteAheadLog,
    atomic_write,
    fsync_directory,
    recover_from_records,
)
from repro.mrbgraph.windows import (
    ChunkLocation,
    MultiDynamicWindowPolicy,
    WindowPolicy,
)

#: Signature of a store crash-injection hook (see
#: :meth:`repro.faults.context.FaultContext.store_hook`): called at every
#: named durability site with ``(point, shard_id, nbytes)``; answering a
#: :class:`~repro.faults.injection.CrashDirective` kills the operation
#: there.
FaultHook = Callable[..., Optional[CrashDirective]]

_DATA_FILE = "mrbg.dat"
_INDEX_FILE = "mrbg.idx"


def encode_index(index: Dict[Any, ChunkLocation], num_batches: int) -> bytes:
    """Encode a store's hash index in the streamed ``mrbg.idx`` layout.

    A header value carrying ``num_batches`` and the entry count, then one
    ``(key, offset, length, batch)`` tuple per live chunk — the exact
    bytes :meth:`MRBGStore.save_index` persists.
    """
    return encode_index_entries(
        [(key, loc.offset, loc.length, loc.batch) for key, loc in index.items()],
        num_batches,
    )


def encode_index_entries(
    entries: List[Tuple[Any, int, int, int]], num_batches: int
) -> bytes:
    """Encode pre-flattened ``(key, offset, length, batch)`` index rows.

    The plain-data form of :func:`encode_index`: shard index flushes ship
    these rows across thread/process boundaries (a live index holds
    unpicklable slotted locations) and still produce byte-identical
    ``mrbg.idx`` files.  The rows must be tuples; int-keyed ones encode
    as one run of fixed-width rows
    (:func:`repro.common.serialization.pack_rows`).
    """
    header = {"num_batches": num_batches, "count": len(entries)}
    return encode(header) + encode_many(entries)


def decode_index(raw: bytes) -> Tuple[Dict[Any, ChunkLocation], int]:
    """Decode ``mrbg.idx`` bytes into ``(index, num_batches)``.

    Reads both index layouts: the streamed format :func:`encode_index`
    writes and the legacy single-dict encoding of older stores.
    """
    values = decode_many(raw)
    if not values:
        return {}, 0
    header = values[0]
    if isinstance(header, dict) and "entries" in header:
        entries = header["entries"]  # legacy one-dict layout
    else:
        entries = values[1:]
    index = {
        key: ChunkLocation(offset, length, batch)
        for key, offset, length, batch in entries
    }
    return index, header["num_batches"]


def require_distinct_keys(keys: Sequence[Any]) -> None:
    """Refuse a merge session whose key list names some K2 twice.

    Raises:
        DuplicateChunkKey: naming the first repeated key.
    """
    if len(set(keys)) == len(keys):
        return
    seen = set()
    for key in keys:
        if key in seen:
            raise DuplicateChunkKey(key)
        seen.add(key)


#: Signature of a task's crash site: ``(point, nbytes)``; raises
#: :class:`~repro.faults.injection.InjectedCrash` when the store's fault
#: hook fires there (see :meth:`MRBGStore._crash_site`).
CrashSite = Callable[[str, int], None]


@dataclass
class ShardCompactTask:
    """Plain-data payload of one store's compaction rewrite.

    Picklable unless ``crash_site`` is set, which only a store with a
    fault hook does; such tasks run in the process that owns the store.
    """

    data_path: str
    #: live ``(offset, length)`` placements in K2 order.
    locations: List[Tuple[int, int]]
    append_buffer_size: int
    crash_site: Optional[CrashSite] = None


@dataclass
class ShardCompactResult:
    """What one compaction rewrite produced (picklable)."""

    #: new ``(offset, length)`` placements, aligned with the task order.
    locations: List[Tuple[int, int]]
    file_size: int


def run_shard_compact(task: ShardCompactTask) -> ShardCompactResult:
    """Stream-rewrite one store's live chunks into ``mrbg.dat.compact``.

    Copies each chunk of ``task.locations`` (K2 order) into the sibling
    temp file, coalescing physically contiguous chunks into single reads
    and flushing the output in ``append_buffer_size`` batches, and leaves
    it there: :meth:`MRBGStore.commit_compact` journals the commit record
    before it swaps the rewrite in.  After every physical temp-file write
    the task's crash site (if set) is consulted with the cumulative output
    byte count — the ``mid-compact-write`` site; a crash there abandons a
    partial temp file and leaves ``mrbg.dat`` untouched.  Pure function of
    the file content, so per-shard rewrites run concurrently on any
    execution backend with byte-identical results.
    """
    locations = task.locations
    limit = task.append_buffer_size
    site = task.crash_site
    new_locations: List[Tuple[int, int]] = []
    out_offset = 0
    written = 0
    with open(task.data_path, "rb") as src, open(task.data_path + ".compact", "wb") as out:
        buffer = bytearray()
        i = 0
        while i < len(locations):
            # Coalesce a run of chunks that are contiguous on disk in
            # key order (one merge session appends in exactly that
            # order, so whole batches coalesce into single reads).
            run_start, length = locations[i]
            run_end = run_start + length
            j = i + 1
            while (
                j < len(locations)
                and locations[j][0] == run_end
                and run_end + locations[j][1] - run_start <= limit
            ):
                run_end += locations[j][1]
                j += 1
            src.seek(run_start)
            buffer += src.read(run_end - run_start)
            for _, length in locations[i:j]:
                new_locations.append((out_offset, length))
                out_offset += length
            if len(buffer) >= limit:
                out.write(buffer)
                written += len(buffer)
                buffer.clear()
                if site is not None:
                    site("mid-compact-write", written)
            i = j
        if buffer:
            out.write(buffer)
            written += len(buffer)
            if site is not None:
                site("mid-compact-write", written)
    return ShardCompactResult(locations=new_locations, file_size=out_offset)


@dataclass
class ShardIndexFlushTask:
    """Plain-data payload of one store's index flush.

    Picklable unless ``crash_site`` is set (see :class:`ShardCompactTask`).
    """

    index_path: str
    #: ``(key, offset, length, batch)`` rows in index insertion order.
    entries: List[Tuple[Any, int, int, int]]
    num_batches: int
    crash_site: Optional[CrashSite] = None


def run_shard_index_flush(task: ShardIndexFlushTask) -> int:
    """Write one store's ``mrbg.idx`` atomically; returns bytes written.

    Encodes with :func:`encode_index_entries` and swaps through
    :func:`repro.mrbgraph.wal.atomic_write`, whose ``pre-index-swap`` and
    ``pre-dir-fsync`` crash sites ``crash_site`` (if set) guards.
    """
    raw = encode_index_entries(task.entries, task.num_batches)
    site = task.crash_site
    pre_replace = pre_dir_sync = None
    if site is not None:
        def pre_replace() -> None:
            site("pre-index-swap", len(raw))

        def pre_dir_sync() -> None:
            # The rename happened but its directory entry is not yet
            # durable — the window the directory fsync closes.
            site("pre-dir-fsync", len(raw))

    atomic_write(task.index_path, raw, pre_replace=pre_replace, pre_dir_sync=pre_dir_sync)
    return len(raw)


@dataclass
class StoreMetrics:
    """Measured and simulated I/O statistics of one MRBG-Store.

    The ``wal_*`` fields and ``recoveries`` account write-ahead-log
    maintenance and crash recovery *separately* from the paper's store
    I/O — like ``compact_time_s`` they are never folded into a job's
    simulated stage times, so durability changes no Fig 8–13 or
    Table 4 number.
    """

    io_reads: int = 0
    bytes_read: int = 0
    read_time_s: float = 0.0
    io_writes: int = 0
    bytes_written: int = 0
    write_time_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    compactions: int = 0
    compact_time_s: float = 0.0
    wal_appends: int = 0
    wal_bytes_written: int = 0
    wal_write_time_s: float = 0.0
    wal_bytes_replayed: int = 0
    wal_replay_time_s: float = 0.0
    recoveries: int = 0

    def reset(self) -> None:
        """Zero every statistic."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0 if isinstance(getattr(self, name), int) else 0.0)

    def merged_into(self, other: "StoreMetrics") -> None:
        """Accumulate this store's statistics into ``other``."""
        for name in self.__dataclass_fields__:
            setattr(other, name, getattr(other, name) + getattr(self, name))

    def snapshot(self) -> "StoreMetrics":
        """Copy of the current statistics (for delta accounting)."""
        clone = StoreMetrics()
        self.merged_into(clone)
        return clone

    def since(self, snap: "StoreMetrics") -> "StoreMetrics":
        """Statistics accumulated since ``snap`` was taken."""
        diff = StoreMetrics()
        for name in self.__dataclass_fields__:
            setattr(diff, name, getattr(self, name) - getattr(snap, name))
        return diff


class MRBGStore:
    """On-disk store of MRBGraph chunks for one Reduce task."""

    def __init__(
        self,
        directory: str,
        policy: Optional[WindowPolicy] = None,
        cost_model: Optional[CostModel] = None,
        append_buffer_size: int = config.DEFAULT_APPEND_BUFFER_SIZE,
        prefetch_lookahead: int = config.DEFAULT_PREFETCH_LOOKAHEAD,
        fault_hook: Optional[FaultHook] = None,
        shard_id: int = 0,
    ) -> None:
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.policy: WindowPolicy = policy or MultiDynamicWindowPolicy()
        self.cost_model = cost_model or CostModel()
        self.append_buffer_size = append_buffer_size
        self.prefetch_lookahead = prefetch_lookahead
        self.metrics = StoreMetrics()
        self.fault_hook = fault_hook
        #: shard index this store plays in a sharded store (0 standalone);
        #: crash-injection hooks key their hit counters on it.
        self.shard_id = shard_id

        self._data_path = os.path.join(directory, _DATA_FILE)
        if not os.path.exists(self._data_path):
            with open(self._data_path, "wb"):
                pass
        self._fh = open(self._data_path, "r+b")
        self._file_size = os.path.getsize(self._data_path)
        self._closed = False
        self._crashed = False
        # Lazily-created journal: the file appears on the first flushed
        # append, so read-only opens of legacy directories stay pristine.
        self._wal = WriteAheadLog(os.path.join(directory, WAL_FILE))

        self._index: Dict[Any, ChunkLocation] = {}
        self._num_batches = 0

        # Append-buffer state for the write session in progress.
        self._buffer: List[bytes] = []
        self._buffer_len = 0
        self._pending_index: Dict[Any, ChunkLocation] = {}
        self._pending_deletes: List[Any] = []
        self._in_session = False

        # Resident columns: K2 -> (offset, columns) for every chunk this
        # object put with a proven value type, exactly as decode_chunk
        # would return them from that offset.  A session stages its puts
        # and end_merge publishes them with the index; a delete or an
        # unproven put evicts the key at once (a read then decodes).
        self._resident: Dict[Any, Tuple[int, ColumnarEdges]] = {}
        self._pending_resident: Dict[Any, Tuple[int, ColumnarEdges]] = {}

        # Read-cache windows: slot -> (start_offset, memoryview over the
        # window bytes).  Cache hits decode straight out of the view, so
        # a hit never copies window data.
        self._windows: Dict[int, Tuple[int, memoryview]] = {}

        # Query plan (set by begin_merge).
        self._plan_key_slot: Dict[Any, Tuple[int, int]] = {}
        self._plan_batch_lists: Dict[int, List[ChunkLocation]] = {}

    # ------------------------------------------------------------------ #
    # lifecycle                                                          #
    # ------------------------------------------------------------------ #

    @classmethod
    def open(
        cls,
        directory: str,
        policy: Optional[WindowPolicy] = None,
        cost_model: Optional[CostModel] = None,
        fault_hook: Optional[FaultHook] = None,
        shard_id: int = 0,
    ) -> "MRBGStore":
        """Reopen a store previously persisted with :meth:`save_index`.

        Reads both index layouts: the streamed format :meth:`save_index`
        writes (a header value followed by one value per entry, decoded in
        bulk with :func:`repro.common.serialization.decode_many`) and the
        legacy single-dict encoding of older stores.  The physical
        ``mrbg.idx`` read is charged to the store metrics and the cost
        model like any other store I/O, so Table 4 accounting is complete.

        The write-ahead log, if one exists, is then replayed
        (:meth:`_recover`): operations that committed after the last
        index flush are rolled forward, interrupted ones are rolled back,
        and torn journal/data tails are truncated — so a store killed at
        *any* point reopens at a consistent pre- or post-operation state.
        """
        store = cls(
            directory,
            policy=policy,
            cost_model=cost_model,
            fault_hook=fault_hook,
            shard_id=shard_id,
        )
        index_path = os.path.join(directory, _INDEX_FILE)
        if os.path.exists(index_path):
            with open(index_path, "rb") as fh:
                raw = fh.read()
            store.metrics.io_reads += 1
            store.metrics.bytes_read += len(raw)
            store.metrics.read_time_s += store.cost_model.store_read_time(len(raw))
            store._index, store._num_batches = decode_index(raw)
        store._recover()
        return store

    def _recover(self) -> None:
        """Replay the write-ahead log against the just-loaded index.

        Runs the :func:`repro.mrbgraph.wal.recover_from_records` state
        machine, then makes its verdict physical: roll a committed
        compaction's data-file swap forward, delete stray temp files,
        truncate any torn data tail, redo committed appends at their
        journaled offsets, and apply the journaled index operations.
        When anything actually changed, the repaired index is persisted
        atomically and the log is reset — recovery is idempotent, and a
        cleanly-closed store replays a single checkpoint record without
        touching disk.  Replay I/O is charged to the dedicated ``wal_*``
        metrics, never to the paper's read/write counters.
        """
        replay = WriteAheadLog.replay_file(self._wal.path)
        if replay is None:
            return
        self.metrics.wal_bytes_replayed += replay.total_bytes
        self.metrics.wal_replay_time_s += self.cost_model.wal_replay_time(
            replay.total_bytes
        )
        recovered = recover_from_records(
            replay.records, self._file_size, self._num_batches
        )

        compact_tmp = self._data_path + ".compact"
        stray_compact = os.path.exists(compact_tmp) and not recovered.compact_pending
        stray_paths = [
            path
            for path in (
                os.path.join(self.directory, _INDEX_FILE) + ".tmp",
                self._wal.path + ".tmp",
            )
            if os.path.exists(path)
        ]
        if stray_compact:
            stray_paths.append(compact_tmp)
        for path in stray_paths:
            os.remove(path)

        if recovered.compact_pending and os.path.exists(compact_tmp):
            # Commit record durable, swap interrupted: finish the swap.
            self._fh.close()
            os.replace(compact_tmp, self._data_path)
            self._fh = open(self._data_path, "r+b")

        for op in recovered.index_ops:
            if op[0] == "put":
                self._index[op[1]] = ChunkLocation(op[2], op[3], op[4])
            elif op[0] == "delete":
                self._index.pop(op[1], None)
            else:  # ("replace", entries) — a committed compaction
                self._index = {
                    key: ChunkLocation(offset, length, 0)
                    for key, offset, length in op[1]
                }

        physical = os.path.getsize(self._data_path)
        if physical > recovered.data_size:
            self._fh.truncate(recovered.data_size)
        for offset, raw in recovered.appends:
            self._fh.seek(offset)
            self._fh.write(raw)
        if recovered.appends:
            self._fh.flush()
        self._file_size = recovered.data_size
        self._num_batches = recovered.num_batches

        changed = (
            recovered.rolled_back
            or recovered.rolled_forward
            or replay.truncated
            or bool(stray_paths)
            or physical != recovered.data_size
        )
        if changed:
            self.metrics.recoveries += 1
            # Persist the repaired state so recovery converges: the next
            # open replays only a checkpoint.  Bypasses the fault hook —
            # crash sites belong to foreground operations, not recovery.
            raw = encode_index(self._index, self._num_batches)
            atomic_write(os.path.join(self.directory, _INDEX_FILE), raw)
            self.metrics.io_writes += 1
            self.metrics.bytes_written += len(raw)
            self.metrics.write_time_s += self.cost_model.store_write_time(len(raw))
            self._wal_reset()

    def save_index(self) -> int:
        """Persist the hash index to disk atomically; returns bytes written.

        The index is written as a stream of top-level values — a header
        carrying ``num_batches`` and the entry count, then one
        ``(key, offset, length, batch)`` tuple per live chunk — so
        :meth:`open` reloads it with one bulk ``decode_many`` pass.  The
        bytes land in a temp file that is fsynced and renamed over
        ``mrbg.idx`` (readers see the old or the new index, never a torn
        mix), after which the write-ahead log — whose every journaled
        operation the new index now reflects — is reset to a checkpoint.
        The write is charged to the store metrics and the cost model.
        """
        if self._crashed:
            return 0
        nbytes = run_shard_index_flush(self.begin_index_flush())
        self.commit_index_flush(nbytes)
        return nbytes

    def begin_index_flush(self) -> ShardIndexFlushTask:
        """First half of :meth:`save_index`: flush the journal, snapshot the index.

        The returned task (run by :func:`run_shard_index_flush`, here or
        on an execution backend) writes ``mrbg.idx``; pass its byte count
        to :meth:`commit_index_flush`.
        """
        self._check_open()
        self._wal_flush()
        return ShardIndexFlushTask(
            index_path=os.path.join(self.directory, _INDEX_FILE),
            entries=[
                (key, loc.offset, loc.length, loc.batch)
                for key, loc in self._index.items()
            ],
            num_batches=self._num_batches,
            crash_site=self._task_crash_site(),
        )

    def commit_index_flush(self, nbytes: int) -> float:
        """Second half of :meth:`save_index`, once ``mrbg.idx`` is durable.

        Charges the write and resets the journal to a checkpoint; returns
        the simulated write time.
        """
        write_s = self.cost_model.store_write_time(nbytes)
        self.metrics.io_writes += 1
        self.metrics.bytes_written += nbytes
        self.metrics.write_time_s += write_s
        self._wal_reset()
        return write_s

    def close(self) -> None:
        """Flush any open session, release the file handle, drop resident columns."""
        if self._closed:
            return
        if self._in_session:
            self.end_merge()
        self._wal_flush()
        self._wal.close()
        self._fh.close()
        self._drop_resident()
        self._closed = True

    def abandon(self) -> None:
        """Drop the store without flushing anything (a simulated kill).

        Pending append-buffer chunks, unflushed journal records and the
        resident columns are lost exactly as a killed process would lose
        them; the directory
        is left for :meth:`open` to recover.  Used by the fault-injection
        suite; all subsequent mutating calls become no-ops.
        """
        if self._closed:
            return
        self._crashed = True
        self._wal.abandon()
        self._fh.close()
        self._drop_resident()
        self._closed = True

    @property
    def crashed(self) -> bool:
        """Whether an injected crash (or :meth:`abandon`) killed this store."""
        return self._crashed

    def _crash(self, point: str, directive: CrashDirective) -> None:
        """Kill the store at a crash site: release handles, then raise.

        After this, every mutating method is a silent no-op (notably the
        ``end_merge`` that :meth:`merge_delta` runs in its ``finally``),
        so the on-disk state stays exactly as the kill left it until
        :meth:`open` recovers the directory.
        """
        self._crashed = True
        self._wal.abandon()
        self._fh.close()
        self._drop_resident()
        self._closed = True
        raise InjectedCrash(point, self.shard_id, directive.occurrence)

    def _crash_site(self, point: str, nbytes: int) -> None:
        """Consult the fault hook at a durability site; crash if it fires."""
        directive = self.fault_hook(point, self.shard_id, nbytes)
        if directive is not None:
            self._crash(point, directive)

    def _task_crash_site(self) -> Optional[CrashSite]:
        """The crash site a maintenance task carries (``None`` without a hook)."""
        return None if self.fault_hook is None else self._crash_site

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("store is closed")

    def _drop_resident(self) -> None:
        """Forget every resident chunk, as a process that exits would."""
        self._resident = {}
        self._pending_resident = {}

    # ------------------------------------------------------------------ #
    # write-ahead log plumbing                                           #
    # ------------------------------------------------------------------ #

    def _wal_append(self, op: int, *fields: Any) -> None:
        """Journal one record (staged in memory until :meth:`_wal_flush`).

        The ``wal-append`` crash site lives here: the record is framed
        once, by the log, and a firing fault hook then flushes the
        records staged before it plus the directive's byte-offset prefix
        of this one — the torn tail replay must survive — and kills the
        store.
        """
        nbytes = self._wal.append(op, *fields)
        if self.fault_hook is not None:
            directive = self.fault_hook("wal-append", self.shard_id, nbytes)
            if directive is not None:
                self._wal.flush_torn(min(directive.byte_offset or 0, nbytes))
                self._crash("wal-append", directive)
        self.metrics.wal_appends += 1

    def _wal_flush(self) -> None:
        """Push staged journal records to the OS, charging ``wal_*`` time."""
        flushed = self._wal.flush()
        if flushed:
            self.metrics.wal_bytes_written += flushed
            self.metrics.wal_write_time_s += self.cost_model.wal_append_time(flushed)

    def _wal_reset(self) -> None:
        """Truncate the journal to a checkpoint of the persisted state."""
        nbytes = self._wal.reset(self._file_size, self._num_batches)
        self.metrics.wal_appends += 1
        self.metrics.wal_bytes_written += nbytes
        self.metrics.wal_write_time_s += self.cost_model.wal_append_time(nbytes)

    # ------------------------------------------------------------------ #
    # introspection                                                      #
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: Any) -> bool:
        return key in self._index

    def keys(self) -> List[Any]:
        """Live chunk keys in K2-sorted order."""
        return sorted(self._index, key=sort_key)

    @property
    def file_size(self) -> int:
        """Current data-file size in bytes (flushed content only)."""
        return self._file_size

    @property
    def num_batches(self) -> int:
        """Number of sorted batches appended so far."""
        return self._num_batches

    def live_bytes(self) -> int:
        """Bytes occupied by the latest version of every live chunk."""
        return sum(loc.length for loc in self._index.values())

    def checkpoint_bytes(self) -> int:
        """Bytes a per-iteration checkpoint of this store would copy (§6.1)."""
        return self.live_bytes()

    # ------------------------------------------------------------------ #
    # building and merging                                               #
    # ------------------------------------------------------------------ #

    def build(self, sorted_chunks: Iterable[Tuple[Any, Sequence[Edge]]]) -> None:
        """Write the initial MRBGraph as the first sorted batch."""
        self._check_open()
        self._begin_session()
        for k2, entries in sorted_chunks:
            self.put_chunk(k2, entries)
        self.end_merge()

    def begin_merge(self, queried_keys: Iterable[Any]) -> None:
        """Start a merge session; ``queried_keys`` is the sorted key list L.

        The query plan lets the window policy look ahead at the positions
        of upcoming chunks (Algorithm 1 line 3: "k's index in L").

        Raises:
            DuplicateChunkKey: L names some key twice — before anything
                is journaled.
        """
        self._check_open()
        if self._in_session:
            raise StoreError("merge session already in progress")
        keys = list(queried_keys)
        require_distinct_keys(keys)
        self._begin_session()
        self._plan_key_slot.clear()
        self._plan_batch_lists.clear()
        for key in keys:
            loc = self._index.get(key)
            if loc is None:
                continue
            batch_list = self._plan_batch_lists.setdefault(loc.batch, [])
            self._plan_key_slot[key] = (loc.batch, len(batch_list))
            batch_list.append(loc)
        self._windows.clear()

    def _begin_session(self) -> None:
        self._wal_append(OP_BEGIN, self._file_size, self._num_batches)
        self._in_session = True
        self._buffer = []
        self._buffer_len = 0
        self._pending_index = {}
        self._pending_deletes = []
        self._pending_resident = {}

    def get_chunk(self, key: Any) -> Optional[ColumnarEdges]:
        """Retrieve the latest preserved chunk for ``key`` (None if absent).

        Reads go through the read cache; on a miss the window policy plans
        a physical read that may prefetch upcoming queried chunks.  Hit or
        miss, a chunk this object put is then compared byte for byte with
        its resident columns' encoding and, when it matches at the same
        offset, those columns are returned; any other chunk is decoded
        once, at its relative offset in the window view, into edges that
        own their memory — the window is neither copied nor kept alive by
        what is returned.

        Raises:
            ChunkKeyMismatch: the chunk at ``key``'s index position was
                written for a different key.
        """
        self._check_open()
        loc = self._index.get(key)
        if loc is None:
            return None
        slot = loc.batch if self.policy.per_batch_windows else 0
        window = self._windows.get(slot)
        if (
            window is not None
            and window[0] <= loc.offset
            and loc.offset + loc.length <= window[0] + len(window[1])
        ):
            self.metrics.cache_hits += 1
        else:
            self.metrics.cache_misses += 1
            upcoming = self._upcoming_in_batch(key, loc)
            plan = self.policy.plan(loc, upcoming, self._file_size)
            window = (plan.offset, memoryview(self._physical_read(plan.offset, plan.nbytes)))
            self._windows[slot] = window
        start, view = window
        resident = self._resident.get(key)
        if (
            resident is not None
            and resident[0] == loc.offset
            and view.obj.startswith(resident[1].raw, loc.offset - start)
        ):
            return resident[1]
        k2, entries, _ = decode_chunk(view, loc.offset - start)
        # ``!=`` alone would reject a NaN key read back from its own chunk.
        if k2 != key and encode(k2) != encode(key):
            raise ChunkKeyMismatch(key, k2)
        return entries

    def _upcoming_in_batch(self, key: Any, loc: ChunkLocation) -> List[ChunkLocation]:
        slot = self._plan_key_slot.get(key)
        if slot is None:
            return []
        batch, position = slot
        batch_list = self._plan_batch_lists.get(batch, [])
        return batch_list[position + 1 : position + 1 + self.prefetch_lookahead]

    def _physical_read(self, offset: int, nbytes: int) -> bytes:
        self._fh.seek(offset)
        data = self._fh.read(nbytes)
        self.metrics.io_reads += 1
        self.metrics.bytes_read += len(data)
        self.metrics.read_time_s += self.cost_model.store_read_time(len(data))
        return data

    def put_chunk(self, key: Any, entries: Sequence[Edge]) -> None:
        """Stage the updated chunk for ``key`` in the append buffer.

        The chunk is encoded at most once, here — edges that still carry
        ``key``'s encoded bytes (a replace-only merge patched them in
        place) are appended as they are; that single buffer carries
        through the journal record, the append buffer, the index entry
        length and the flushed write (``chunk_size`` exists for callers
        that need the size without a buffer at all).
        """
        self._check_open()
        if not self._in_session:
            raise StoreError("put_chunk outside a merge session")
        raw = encode_chunk(key, entries)
        self._wal_append(OP_PUT, key, raw)
        offset = self._file_size + self._buffer_len
        self._buffer.append(raw)
        self._buffer_len += len(raw)
        self._pending_index[key] = ChunkLocation(offset, len(raw), self._num_batches)
        columns = decoded_columns(entries, raw)
        if columns is None:
            self._evict_resident(key)
        else:
            self._pending_resident[key] = (offset, columns)
        if self._buffer_len >= self.append_buffer_size:
            self._flush_buffer()

    def delete_chunk(self, key: Any) -> None:
        """Stage removal of ``key``'s chunk (applied at session end)."""
        self._check_open()
        if not self._in_session:
            raise StoreError("delete_chunk outside a merge session")
        self._wal_append(OP_DELETE, key)
        self._pending_deletes.append(key)
        self._pending_index.pop(key, None)
        self._evict_resident(key)

    def _evict_resident(self, key: Any) -> None:
        self._pending_resident.pop(key, None)
        self._resident.pop(key, None)

    def _flush_buffer(self) -> None:
        if self._crashed or not self._buffer:
            return
        # Write-ahead: the journal records covering these chunks reach
        # the OS before the data bytes do.
        self._wal_flush()
        raw = b"".join(self._buffer)
        self._fh.seek(self._file_size)
        self._fh.write(raw)
        self._fh.flush()
        self._file_size += len(raw)
        self.metrics.io_writes += 1
        self.metrics.bytes_written += len(raw)
        self.metrics.write_time_s += self.cost_model.store_write_time(len(raw))
        self._buffer = []
        self._buffer_len = 0

    def end_merge(self) -> None:
        """Flush the append buffer and publish the new batch in the index.

        The session's commit record is journaled — and flushed — *before*
        the data flush, so on recovery a committed session replays to the
        exact published state whether or not its data bytes landed.
        After an injected crash this is a silent no-op (the ``finally``
        of :meth:`merge_delta` must not resurrect a killed session).
        """
        if self._crashed:
            return
        self._check_open()
        if not self._in_session:
            raise StoreError("end_merge without begin_merge")
        wrote_any = bool(self._pending_index)
        self._wal_append(
            OP_COMMIT,
            self._file_size + self._buffer_len,
            self._num_batches + (1 if wrote_any else 0),
        )
        self._wal_flush()
        self._flush_buffer()
        for key in self._pending_deletes:
            self._index.pop(key, None)
        self._index.update(self._pending_index)
        self._resident.update(self._pending_resident)
        if wrote_any:
            self._num_batches += 1
        self._pending_index = {}
        self._pending_deletes = []
        self._pending_resident = {}
        self._in_session = False
        self._plan_key_slot.clear()
        self._plan_batch_lists.clear()

    def merge_delta(
        self,
        delta_by_key: Iterable[Tuple[Any, List[DeltaEdge]]],
    ) -> Iterator[Tuple[Any, ColumnarEdges]]:
        """Join a sorted delta MRBGraph against the store (§3.3–3.4).

        For each affected K2 (in sorted order) the preserved chunk is
        retrieved, the delta's insertions/deletions/updates are applied,
        the merged chunk is re-appended (or deleted when it became empty),
        and the merged edges are yielded so the caller can re-run the
        Reduce instance on their value column.

        Raises:
            DuplicateChunkKey: the delta has two groups for one key (see
                :meth:`begin_merge`).
        """
        delta_list = list(delta_by_key)
        self.begin_merge([k2 for k2, _ in delta_list])
        try:
            for k2, delta_edges in delta_list:
                old = self.get_chunk(k2) or []
                merged = apply_delta(old, delta_edges)
                if merged:
                    self.put_chunk(k2, merged)
                else:
                    self.delete_chunk(k2)
                yield k2, merged
        finally:
            self.end_merge()

    # ------------------------------------------------------------------ #
    # compaction                                                         #
    # ------------------------------------------------------------------ #

    def compact(self) -> None:
        """Offline reconstruction: rewrite live chunks as one sorted batch.

        The paper performs this "when the worker is idle" (§3.4), so its
        cost is tracked separately (``metrics.compact_time_s``) and never
        charged to a job's runtime by the engines.

        The rewrite streams: live chunks are copied in K2 order into a
        sibling temp file, coalescing physically contiguous chunks into
        single reads and flushing the output in append-buffer-sized
        batches, so peak memory stays bounded by the buffer sizes instead
        of the whole data file.  The simulated cost is unchanged from the
        full-file reconstruction the paper describes: one sequential scan
        of the old file plus one sequential write of the live bytes.

        The rewrite is crash-safe: a compaction *intent* is journaled
        before the temp file is written and the *commit* record — carrying
        the complete new placement list — is flushed before the temp file
        replaces ``mrbg.dat``.  Recovery rolls an uncommitted rewrite back
        (deleting the temp) and a committed one forward (finishing the
        swap).  The two halves, :meth:`begin_compact` and
        :meth:`commit_compact`, are the one protocol every compaction runs;
        a sharded store runs the rewrites between them in parallel.
        """
        if self._crashed:
            return
        keys, task = self.begin_compact()
        self.commit_compact(keys, run_shard_compact(task))

    def begin_compact(self) -> Tuple[List[Any], ShardCompactTask]:
        """First half of :meth:`compact`: journal the intent, plan the rewrite.

        Returns the live keys in K2 order and the rewrite task
        (:func:`run_shard_compact`) whose result :meth:`commit_compact`
        takes together with those keys.
        """
        self._check_open()
        if self._in_session:
            raise StoreError("cannot compact during a merge session")
        keys = self.keys()
        index = self._index
        self._wal_append(OP_COMPACT_BEGIN)
        self._wal_flush()
        task = ShardCompactTask(
            data_path=self._data_path,
            locations=[(index[key].offset, index[key].length) for key in keys],
            append_buffer_size=self.append_buffer_size,
            crash_site=self._task_crash_site(),
        )
        return keys, task

    def commit_compact(self, keys: List[Any], result: ShardCompactResult) -> float:
        """Second half of :meth:`compact`: journal the commit, swap, adopt.

        The commit record (with the full new placement list) is durable
        before the swap, so recovery can finish or undo it; the directory
        fsync then makes the swap itself durable.  Returns the simulated
        compaction time charged to ``metrics.compact_time_s``.
        """
        placements = [
            (key, offset, length) for key, (offset, length) in zip(keys, result.locations)
        ]
        self._wal_append(OP_COMPACT_COMMIT, placements, result.file_size)
        self._wal_flush()
        if self.fault_hook is not None:
            self._crash_site("post-compact-pre-swap", result.file_size)
        os.replace(self._data_path + ".compact", self._data_path)
        fsync_directory(os.path.dirname(os.path.abspath(self._data_path)))

        compact_s = self.cost_model.store_read_time(
            self._file_size
        ) + self.cost_model.store_write_time(result.file_size)
        self._adopt_compacted(
            {key: ChunkLocation(offset, length, 0) for key, offset, length in placements},
            result.file_size,
        )
        self.metrics.compactions += 1
        self.metrics.compact_time_s += compact_s
        return compact_s

    def _adopt_compacted(self, new_index: Dict[Any, ChunkLocation], file_size: int) -> None:
        """Switch to a compacted ``mrbg.dat`` already swapped into place.

        Compaction copies every live chunk verbatim, so resident columns
        stay valid at their key's new offset.
        """
        self._fh.close()
        self._fh = open(self._data_path, "r+b")
        self._file_size = file_size
        self._index = new_index
        self._num_batches = 1 if new_index else 0
        self._windows.clear()
        self._resident = {
            key: (new_index[key].offset, columns)
            for key, (_, columns) in self._resident.items()
        }

    def maybe_compact(self) -> bool:
        """Idle-time compaction opportunity: rewrite iff there is dead weight.

        The hook for the paper's "when the worker is idle" (§3.4): it
        compacts once the file holds more than one sorted batch or any
        superseded chunk bytes, and otherwise leaves an already-compact
        store alone.  No engine calls it yet.  Returns whether a
        compaction ran.
        """
        if self._crashed or self._in_session:
            return False
        self._check_open()
        if self._num_batches <= 1 and self._file_size <= self.live_bytes():
            return False
        self.compact()
        return True
