"""Per-store write-ahead log: the durability layer of the MRBG-Store.

The paper's MRBG-Store (§3.4) appends merged chunks and rewrites its
file during idle-time compaction, but a crash mid-merge or mid-compaction
would lose or corrupt exactly the preserved state the incremental engines
(§3–4) depend on.  This module journals every mutation *before* it
touches ``mrbg.dat``, so :meth:`repro.mrbgraph.store.MRBGStore.open` can
always reconstruct a consistent store: either the state before the
interrupted operation (roll back) or the state after it (roll forward) —
never a third state.

**Record framing.**  One WAL record is::

    u32 payload length | u32 crc32(payload) | payload

where the payload is one value of the library's binary codec
(:mod:`repro.common.serialization`): a tuple whose first element is the
opcode.  Length prefix and checksum make torn tails self-delimiting —
replay stops at the first record whose length runs past the file or
whose checksum fails, which is exactly the paper's crash model (a kill
tears the *tail* of a sequential append).

An ``OP_PUT`` record carries a whole encoded chunk, so
:func:`encode_put_record` frames it directly — only the key goes through
the codec, and the chunk bytes are checksummed and copied once — with
the same bytes :func:`encode_wal_record` would produce.

**Record types** (all tuples)::

    (OP_CHECKPOINT, data_size, num_batches)   index on disk reflects everything up to here
    (OP_BEGIN, data_size, num_batches)        a merge/build session opened
    (OP_PUT, key, chunk_bytes)                one append-buffer put (the encoded chunk verbatim)
    (OP_DELETE, key)                          one staged chunk removal
    (OP_COMMIT, data_size, num_batches)       the session published (write-ahead of the data flush)
    (OP_COMPACT_BEGIN,)                       compaction intent (temp rewrite started)
    (OP_COMPACT_COMMIT, entries, data_size)   compaction durable (entries = (key, offset, length) rows)

**Write-ahead discipline.**  Appends buffer in memory and are flushed to
the OS before any dependent ``mrbg.dat`` write (the store calls
:meth:`WriteAheadLog.flush` first) and at every commit record, so the
log is always at least as new as the data file.  Because ``OP_PUT``
journals the encoded chunk bytes verbatim, a committed session whose
data flush never happened is replayed by re-appending exactly those
bytes — recovery is byte-identical to the uncrashed write.

Simulated WAL I/O time is charged through the cost model
(:meth:`repro.cluster.costmodel.CostModel.wal_append_time` /
:meth:`~repro.cluster.costmodel.CostModel.wal_replay_time`) into the
dedicated ``wal_*`` fields of
:class:`repro.mrbgraph.store.StoreMetrics` — like compaction, WAL
maintenance is accounted separately and never folded into a job's
simulated stage times, so every Fig 8–13 and Table 4 number is unchanged
by durability being on.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

from repro.common.errors import SerializationError, WALCorruptError
from repro.common.serialization import (
    _I64,
    _TAG_BYTES,
    _TAG_INT,
    _TAG_TUPLE,
    _U32,
    as_view,
    decode,
    encode_into,
)

#: On-disk WAL file name inside a store directory.
WAL_FILE = "mrbg.wal"

_HEADER = struct.Struct("<II")

# Opcodes (first element of every record payload tuple).
OP_CHECKPOINT = 0
OP_BEGIN = 1
OP_PUT = 2
OP_DELETE = 3
OP_COMMIT = 4
OP_COMPACT_BEGIN = 5
OP_COMPACT_COMMIT = 6

#: Human-readable opcode names (docs, goldens, debugging).
OP_NAMES = {
    OP_CHECKPOINT: "checkpoint",
    OP_BEGIN: "begin",
    OP_PUT: "put",
    OP_DELETE: "delete",
    OP_COMMIT: "commit",
    OP_COMPACT_BEGIN: "compact-begin",
    OP_COMPACT_COMMIT: "compact-commit",
}


def encode_wal_record(op: int, *fields: Any) -> bytes:
    """Frame one WAL record: length prefix, crc32 checksum, codec payload.

    Pure function of its arguments, so the wire format is pinned by
    golden-file tests (``tests/golden/wal_records.json``).
    """
    payload = bytearray()
    encode_into((op, *fields), payload)
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


#: Payload bytes every ``OP_PUT`` record starts with: a 3-tuple header and
#: the tagged opcode.
_PUT_PREFIX = bytes([_TAG_TUPLE]) + _U32.pack(3) + bytes([_TAG_INT]) + _I64.pack(OP_PUT)


def encode_put_record(key: Any, chunk: bytes) -> bytes:
    """Frame ``(OP_PUT, key, chunk)`` without running the chunk through the codec.

    Byte-identical to ``encode_wal_record(OP_PUT, key, chunk)``: only the
    key is encoded; the bytes field's tag and length are written
    directly, and the checksum chains ``crc32(chunk, crc32(prefix))`` so
    the chunk is copied once, into the frame.
    """
    prefix = bytearray(_PUT_PREFIX)
    encode_into(key, prefix)
    prefix.append(_TAG_BYTES)
    prefix += _U32.pack(len(chunk))
    header = _HEADER.pack(len(prefix) + len(chunk), zlib.crc32(chunk, zlib.crc32(prefix)))
    return b"".join((header, prefix, chunk))


def decode_wal_record(
    buf: Any, offset: int = 0, path: str = ""
) -> Tuple[Tuple[Any, ...], int]:
    """Decode one framed record at ``offset``; returns ``(record, next)``.

    Distinguishes the two ways a record can be unreadable:

    - **torn tail** — the header is incomplete, or the declared length
      runs past the buffer.  A crash kills a sequential append exactly
      like this, so replay tolerates it (raises
      :class:`~repro.common.errors.SerializationError`; recovery
      truncates and rolls back).
    - **mid-log corruption** — the record is fully contained but its
      checksum mismatches, or its payload does not decode to an opcode
      tuple.  No crash produces this (a kill can only shorten the file),
      so it fails loudly with
      :class:`~repro.common.errors.WALCorruptError` rather than silently
      dropping a suffix of committed history.

    Raises:
        SerializationError: torn tail of a crashed append (tolerated).
        WALCorruptError: a fully contained record is damaged (bit rot,
            external edit) — never silently dropped.
    """
    mv = as_view(buf)
    if offset + _HEADER.size > len(mv):
        raise SerializationError("torn WAL record header")
    length, crc = _HEADER.unpack_from(mv, offset)
    start = offset + _HEADER.size
    end = start + length
    if end > len(mv):
        raise SerializationError("WAL record length runs past the file")
    payload = mv[start:end]
    if zlib.crc32(payload) != crc:
        raise WALCorruptError(path, offset, "checksum mismatch")
    try:
        value, pos = decode(mv, start)
    except SerializationError as exc:
        raise WALCorruptError(path, offset, f"undecodable payload: {exc}") from exc
    if pos != end or not isinstance(value, tuple) or not value:
        raise WALCorruptError(path, offset, "payload is not an opcode tuple")
    return value, end


@dataclass
class WALReplay:
    """Everything one sequential read of a WAL file yielded.

    Attributes:
        records: the valid records, in append order.
        valid_bytes: bytes consumed by those records.
        total_bytes: physical file size (``total_bytes > valid_bytes``
            means a torn tail was discarded).
        truncated: whether a torn/corrupt tail was hit.
    """

    records: List[Tuple[Any, ...]]
    valid_bytes: int
    total_bytes: int
    truncated: bool


class WriteAheadLog:
    """Append-only, checksummed journal of one store's mutations.

    Created lazily: the file appears on the first append, so opening a
    legacy store directory read-only never creates one.  Crash injection
    (see :mod:`repro.faults.injection`) tears an append at a byte offset
    via :meth:`flush_torn` — producing exactly the partial tail
    replay must survive.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = None
        self._pending: List[bytes] = []
        #: bytes appended (and flushed or pending) since construction.
        self.bytes_appended = 0

    # ------------------------------------------------------------------ #
    # writing                                                            #
    # ------------------------------------------------------------------ #

    def _handle(self):
        if self._fh is None:
            self._fh = open(self.path, "ab")
        return self._fh

    def append(self, op: int, *fields: Any) -> int:
        """Stage one record; returns its framed byte length.

        Records buffer in memory until :meth:`flush` — the store flushes
        the log before any dependent data write and at commit records,
        which is all the write-ahead property needs.  A chunk put is
        framed by :func:`encode_put_record`.
        """
        if op == OP_PUT and len(fields) == 2 and type(fields[1]) is bytes:
            raw = encode_put_record(*fields)
        else:
            raw = encode_wal_record(op, *fields)
        self._pending.append(raw)
        self.bytes_appended += len(raw)
        return len(raw)

    def flush(self) -> int:
        """Write pending records to the OS; returns bytes flushed."""
        if not self._pending:
            return 0
        raw = b"".join(self._pending)
        fh = self._handle()
        fh.write(raw)
        fh.flush()
        self._pending = []
        return len(raw)

    def flush_torn(self, upto: int) -> None:
        """Flush all staged records but the last, then ``upto`` bytes of it.

        The crash-injection path: a fault directive at ``wal-append``
        tears the record just staged at a byte offset, leaving exactly
        the partial tail a killed process would.
        """
        final_record = self._pending.pop()
        self.flush()
        if upto > 0:
            fh = self._handle()
            fh.write(final_record[:upto])
            fh.flush()

    def reset(self, data_size: int, num_batches: int) -> int:
        """Truncate the log down to one checkpoint record.

        Called after the index has been atomically persisted: everything
        the log journaled is now reflected by ``mrbg.idx``, so only the
        committed data size (for tail truncation on recovery) needs to
        survive.  Returns the bytes written.
        """
        self._pending = []
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        raw = encode_wal_record(OP_CHECKPOINT, data_size, num_batches)
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(raw)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        fsync_directory(os.path.dirname(os.path.abspath(self.path)))
        return len(raw)

    def close(self) -> None:
        """Flush and release the file handle."""
        self.flush()
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def abandon(self) -> None:
        """Release the handle *without* flushing pending records.

        Simulates the process dying: staged-but-unflushed records are
        lost, exactly like a real kill between append and flush.
        """
        self._pending = []
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # ------------------------------------------------------------------ #
    # replay                                                             #
    # ------------------------------------------------------------------ #

    @staticmethod
    def replay_bytes(raw: bytes, path: str = "") -> WALReplay:
        """Parse a WAL image, stopping at the first *torn* record.

        A torn tail (the crash model) ends replay and marks the result
        ``truncated``; mid-log corruption of a fully contained record is
        a different failure entirely and propagates as
        :class:`~repro.common.errors.WALCorruptError`.
        """
        records: List[Tuple[Any, ...]] = []
        offset = 0
        truncated = False
        while offset < len(raw):
            try:
                record, offset = decode_wal_record(raw, offset, path=path)
            except SerializationError:
                truncated = True
                break
            records.append(record)
        return WALReplay(
            records=records,
            valid_bytes=offset,
            total_bytes=len(raw),
            truncated=truncated,
        )

    @classmethod
    def replay_file(cls, path: str) -> Optional[WALReplay]:
        """Replay ``path`` if it exists; None when there is no log.

        Raises:
            WALCorruptError: the log contains mid-log corruption (see
                :func:`decode_wal_record`) — recovery must not proceed.
        """
        if not os.path.exists(path):
            return None
        with open(path, "rb") as fh:
            raw = fh.read()
        return cls.replay_bytes(raw, path=path)


@dataclass
class RecoveredState:
    """What replaying a WAL against a base index reconstructs.

    Attributes:
        index_ops: ordered ``("put", key, offset, length, batch)`` /
            ``("delete", key)`` / ``("replace", entries)`` operations to
            apply to the base index.
        appends: ``(offset, chunk_bytes)`` data-file writes to redo
            (committed sessions whose flush never happened).
        data_size: committed data-file size; any physical tail beyond it
            is torn, uncommitted garbage and must be truncated away.
        num_batches: committed sorted-batch count.
        compact_pending: a compaction passed its commit point but the
            data-file swap may not have happened (roll it forward).
        rolled_back: at least one uncommitted session or compaction was
            discarded.
        rolled_forward: at least one committed operation was redone.
    """

    index_ops: List[Tuple[Any, ...]]
    appends: List[Tuple[int, bytes]]
    data_size: int
    num_batches: int
    compact_pending: bool
    rolled_back: bool
    rolled_forward: bool


def recover_from_records(
    records: List[Tuple[Any, ...]],
    base_data_size: int,
    base_num_batches: int,
) -> RecoveredState:
    """Run the recovery state machine over replayed WAL records.

    Pure function: given the records and the state the on-disk index
    describes, it decides which operations committed (roll forward: redo
    their index entries and, for sessions, their data appends) and which
    did not (roll back: discard, truncate).  See ``docs/store.md`` for
    the state-machine table.
    """
    index_ops: List[Tuple[Any, ...]] = []
    appends: List[Tuple[int, bytes]] = []
    data_size = base_data_size
    num_batches = base_num_batches
    compact_pending = False
    rolled_back = False
    rolled_forward = False

    session: Optional[List[Tuple[Any, ...]]] = None
    session_base = 0
    session_batches = 0

    for record in records:
        op = record[0]
        if op == OP_CHECKPOINT:
            data_size = record[1]
            num_batches = record[2]
        elif op == OP_BEGIN:
            if session is not None:
                rolled_back = True  # a prior session never committed
            session = []
            session_base = record[1]
            session_batches = record[2]
            data_size = record[1]
            num_batches = record[2]
        elif op in (OP_PUT, OP_DELETE):
            if session is not None:
                session.append(record)
            # puts outside a session can only be torn noise; ignore.
        elif op == OP_COMMIT:
            if session is None:
                continue
            offset = session_base
            for staged in session:
                if staged[0] == OP_PUT:
                    _, key, raw = staged
                    index_ops.append(("put", key, offset, len(raw), session_batches))
                    appends.append((offset, raw))
                    offset += len(raw)
                else:
                    index_ops.append(("delete", staged[1]))
            if session:
                rolled_forward = True
            data_size = record[1]
            num_batches = record[2]
            session = None
        elif op == OP_COMPACT_BEGIN:
            compact_pending = False
        elif op == OP_COMPACT_COMMIT:
            entries = [tuple(entry) for entry in record[1]]
            index_ops.append(("replace", entries))
            data_size = record[2]
            num_batches = 1 if entries else 0
            compact_pending = True
            rolled_forward = True

    if session is not None:
        rolled_back = True  # crash mid-session: roll back to its base
        data_size = session_base
        num_batches = session_batches

    return RecoveredState(
        index_ops=index_ops,
        appends=appends,
        data_size=data_size,
        num_batches=num_batches,
        compact_pending=compact_pending,
        rolled_back=rolled_back,
        rolled_forward=rolled_forward,
    )


def fsync_directory(directory: str) -> None:
    """Flush a directory entry to disk so a completed rename survives.

    ``os.replace`` makes the swap atomic for *readers*, but the new
    directory entry itself lives in the directory inode — until that is
    fsynced, a host crash (power loss, kernel panic) can roll the rename
    back.  POSIX only; a silent no-op on platforms without
    ``os.O_DIRECTORY`` (directories cannot be opened for fsync there).
    """
    if not hasattr(os, "O_DIRECTORY"):  # pragma: no cover - non-POSIX
        return
    try:
        fd = os.open(directory or ".", os.O_RDONLY | os.O_DIRECTORY)
    except OSError:  # pragma: no cover - directory vanished/forbidden
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: str, raw: bytes, pre_replace=None, pre_dir_sync=None) -> None:
    """Write ``raw`` to ``path`` atomically: temp file, fsync, rename,
    directory fsync.

    The write-temp + fsync + ``os.replace`` sequence guarantees readers
    see either the old bytes or the new bytes, never a torn mix — the
    swap discipline for ``mrbg.idx`` and ``mrbg.shards`` — and the final
    :func:`fsync_directory` makes the rename itself durable against a
    host crash, not just a process kill.  When ``pre_replace`` is given
    it runs *between* the fsync and the rename (the ``pre-index-swap``
    crash site: raising there leaves the old file intact beside a
    complete temp file); ``pre_dir_sync`` runs between the rename and
    the directory fsync (the ``pre-dir-fsync`` crash site: the swap
    happened but is not yet durable).
    """
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(raw)
        fh.flush()
        os.fsync(fh.fileno())
    if pre_replace is not None:
        pre_replace()
    os.replace(tmp, path)
    if pre_dir_sync is not None:
        pre_dir_sync()
    fsync_directory(os.path.dirname(os.path.abspath(path)))
