"""Exception hierarchy for the i2MapReduce reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class InvalidEnvVar(ReproError, ValueError):
    """A ``REPRO_*`` environment variable holds a value it cannot mean.

    Raised at import of :mod:`repro.common.config` instead of silently
    falling back to a default or reading an unknown flag as *on*.
    """

    def __init__(self, name: str, value: str, expected: str) -> None:
        super().__init__(f"{name}={value!r}: expected {expected}")
        self.name = name
        self.value = value
        self.expected = expected


class SerializationError(ReproError):
    """A value could not be encoded to or decoded from the binary format."""


class DFSError(ReproError):
    """Base class for distributed-file-system errors."""


class FileNotFoundInDFS(DFSError):
    """The requested DFS path does not exist."""


class FileAlreadyExists(DFSError):
    """A DFS path was written twice without overwrite permission."""


class JobError(ReproError):
    """A MapReduce job was misconfigured or failed during execution."""


class DeltaDecodeError(ReproError):
    """A DFS delta record could not be decoded into a ``DeltaRecord``.

    Raised when a ``(K1, (V1, '+'|'-'))`` record has the wrong shape or
    an op tag other than ``'+'``/``'-'``.
    """

    def __init__(self, record: object, reason: str) -> None:
        super().__init__(f"malformed delta record {record!r}: {reason}")
        self.record = record
        self.reason = reason


class StreamError(ReproError):
    """Base class for continuous-pipeline (streaming) errors."""


class StreamSourceError(StreamError):
    """A delta source was misconfigured or produced an unusable stream."""


class InvalidJobConf(JobError):
    """A job configuration failed validation before execution."""


class PartitionOutOfRange(JobError):
    """A partitioner returned an index outside ``range(num_partitions)``.

    The shuffle only ever fetches partitions ``0 .. num_partitions - 1``,
    so records filed under any other index would silently vanish from
    the job's output; the map-side spill fails instead.
    """

    def __init__(self, key: object, partition: object, num_partitions: int) -> None:
        super().__init__(
            f"partitioner sent key {key!r} to partition {partition!r}, "
            f"outside range({num_partitions})"
        )
        self.key = key
        self.partition = partition
        self.num_partitions = num_partitions


class TaskFailure(JobError):
    """A simulated task failure (used by the fault-injection machinery)."""

    def __init__(self, task_id: str, message: str = "") -> None:
        super().__init__(message or f"task {task_id} failed")
        self.task_id = task_id


class RetriesExhausted(JobError):
    """A task kept failing after every permitted re-execution.

    Raised by :class:`repro.resilience.ResilientExecutor` once a task has
    consumed its retry budget; carries the task's index within the batch
    and the final underlying failure description.
    """

    def __init__(self, task_index: int, attempts: int, cause: str) -> None:
        super().__init__(
            f"task {task_index} failed {attempts} attempt(s); giving up: {cause}"
        )
        self.task_index = task_index
        self.attempts = attempts
        self.cause = cause


class DeadLetteredBatch(StreamError):
    """A streaming micro-batch failed every retry and was dead-lettered.

    Never raised out of :meth:`repro.streaming.pipeline.ContinuousPipeline.run`
    — the pipeline records the poison batch and keeps going — but kept as
    the typed wrapper stored in the pipeline's dead-letter queue.
    """

    def __init__(self, batch_index: int, attempts: int, cause: str) -> None:
        super().__init__(
            f"batch {batch_index} dead-lettered after {attempts} attempt(s): {cause}"
        )
        self.batch_index = batch_index
        self.attempts = attempts
        self.cause = cause


class StoreError(ReproError):
    """Base class for MRBG-Store errors."""


class StoreClosedError(StoreError):
    """An operation was attempted on a closed MRBG-Store."""


class WALCorruptError(StoreError):
    """A write-ahead log contains mid-log corruption (not a torn tail).

    A crash can only tear the *tail* of a sequential append, and torn
    tails are tolerated (replay stops and recovery rolls back).  A record
    that is fully present in the file but fails its checksum — or decodes
    to something other than an opcode tuple — means the log was damaged
    some other way (bit rot, external truncation/edit); silently dropping
    the suffix could resurrect stale preserved state, so this fails
    loudly instead.
    """

    def __init__(self, path: str, offset: int, reason: str) -> None:
        super().__init__(f"corrupt WAL record in {path or '<buffer>'} "
                         f"at byte {offset}: {reason}")
        self.path = path
        self.offset = offset
        self.reason = reason


class ChunkNotFound(StoreError):
    """A queried chunk key is not present in the MRBG-Store index."""

    def __init__(self, key: object) -> None:
        super().__init__(f"chunk not found for key {key!r}")
        self.key = key


class ChunkKeyMismatch(StoreError):
    """The chunk an index entry points at was written for another key.

    The index said ``requested`` lives at some offset, but the chunk
    decoded there carries ``found`` as its K2 — a corrupt or stale
    index.  Merging on would graft one Reduce instance's edges onto
    another, so the read fails instead.
    """

    def __init__(self, requested: object, found: object) -> None:
        super().__init__(
            f"index entry for key {requested!r} points at the chunk of key {found!r}"
        )
        self.requested = requested
        self.found = found


class DuplicateChunkKey(StoreError):
    """A merge session was given the same K2 twice.

    Each queried key is read once and its merged chunk put once, so a
    second delta group for the same key would be merged against the
    *old* chunk and overwrite the first group's result — a silent lost
    update.  The session is refused before anything is journaled.
    """

    def __init__(self, key: object) -> None:
        super().__init__(f"key {key!r} appears twice in one merge session")
        self.key = key


class ConvergenceError(ReproError):
    """An iterative computation failed to converge within its budget."""


class ServingError(ReproError):
    """Base class for online query-serving (``repro.serving``) errors."""


class QueryTimeout(ServingError):
    """A query's simulated read cost exceeded its timeout budget.

    :class:`repro.serving.QueryServer`'s ``timeout_s`` is a per-query
    deadline on the *simulated* clock: a query whose charged read cost
    comes out above the deadline raises this instead of returning (the
    client would have given up).
    """

    def __init__(self, query: str, cost_s: float, timeout_s: float) -> None:
        super().__init__(
            f"{query} took {cost_s:.6f} simulated s "
            f"(timeout {timeout_s:.6f} s)"
        )
        self.query = query
        self.cost_s = cost_s
        self.timeout_s = timeout_s


class EpochRetired(ServingError):
    """The requested epoch fell out of the serving retention window.

    Epochs older than the window are retired once unpinned; a reader
    holding a bare epoch number past that point gets this error rather
    than a silently different view.
    """


class UnknownEpoch(ServingError):
    """The requested epoch was never published by this manager."""
