"""Library-wide configuration defaults.

These constants mirror the defaults stated in the paper:

- the MRBG-Store read-window gap threshold ``T`` is 100 KB (§3.4),
- the change-propagation filter threshold defaults to 1 (§8.5 notes all
  earlier experiments use FT = 1),
- MRBGraph maintenance auto-disables when the delta-state proportion
  ``P∆`` exceeds 50 % (§5.2),
- Hadoop job startup is "over 20 seconds" (§4.2), and
- TaskTracker heartbeats arrive every 3 seconds (§6.1).

Every ``REPRO_*`` override is read once, here, at import time.  An unset
or blank variable means the default; a value that cannot be parsed
raises :class:`~repro.common.errors.InvalidEnvVar` naming the variable,
rather than being read as some other setting.
"""

from __future__ import annotations

import os

from repro.common.errors import InvalidEnvVar

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024


def _env_value(name, default, parse, expected: str):
    """``parse`` of the stripped ``os.environ[name]``; unset or blank is
    ``default``, and a ``ValueError`` from ``parse`` becomes
    :class:`InvalidEnvVar` (``expected`` describes the accepted values)."""
    raw = os.environ.get(name, "")
    text = raw.strip()
    if not text:
        return default
    try:
        return parse(text)
    except ValueError:
        raise InvalidEnvVar(name, raw, expected) from None


def _env_int(name: str, default: "int | None") -> "int | None":
    return _env_value(name, default, int, "an integer")


def _env_float(name: str) -> "float | None":
    return _env_value(name, None, float, "a number")


_FLAG_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _parse_flag(raw: str) -> bool:
    try:
        return _FLAG_WORDS[raw.lower()]
    except KeyError:
        raise ValueError(raw) from None


def _env_flag(name: str, default: bool) -> bool:
    return _env_value(
        name, default, _parse_flag, "one of 1/true/yes/on or 0/false/no/off"
    )


#: Canonical host execution backend names (see :mod:`repro.execution`).
EXECUTOR_NAMES = ("serial", "thread", "process")


def _parse_executor(raw: str) -> str:
    if raw not in EXECUTOR_NAMES:
        raise ValueError(raw)
    return raw


def _parse_fraction(raw: str) -> float:
    value = float(raw)
    if not 0.0 <= value <= 1.0:  # also rejects nan
        raise ValueError(raw)
    return value


#: MRBG-Store dynamic read-window gap threshold ``T`` (bytes), paper §3.4.
DEFAULT_GAP_THRESHOLD = 100 * KB

#: MRBG-Store read cache capacity (bytes).
DEFAULT_READ_CACHE_SIZE = 4 * MB

#: MRBG-Store append buffer capacity (bytes) before a sequential flush.
DEFAULT_APPEND_BUFFER_SIZE = 1 * MB

#: How many upcoming queried chunks of the same batch the MRBG-Store
#: hands the window policy to plan a prefetching read (Algorithm 1's
#: look-ahead over "k's index in L").
DEFAULT_PREFETCH_LOOKAHEAD = 256

#: Number of shards each MRBG-Store is split into.  ``1`` keeps the
#: paper's monolithic per-Reduce-task store; larger values split every
#: store into that many independent :class:`~repro.mrbgraph.store.MRBGStore`
#: shards whose maintenance (merge, compaction, index flush) can run in
#: parallel on the host execution backends.  Overridable via the
#: ``REPRO_SHARDS`` environment variable.
DEFAULT_NUM_SHARDS = _env_int("REPRO_SHARDS", 1)

#: Whether iterative engines run workset-driven delta iterations by
#: default: each superstep re-maps only the state keys whose value
#: changed (the dirty frontier), schedules map tasks only for the shard
#: partitions holding dirty members, and terminates on an empty workset
#: (Ewen et al., *Spinning Fast Iterative Data Flows*).  Off by default —
#: the full-sweep engines remain the reference semantics.  Overridable
#: via the ``REPRO_WORKSET`` environment variable or per job via
#: ``IterativeJob.workset`` / ``I2MROptions.workset``.
DEFAULT_WORKSET = _env_flag("REPRO_WORKSET", False)

#: Change-propagation-control filter threshold default (§8.5).
DEFAULT_FILTER_THRESHOLD = 1.0

#: MRBGraph maintenance auto-off threshold on ``P∆`` (§5.2).
DEFAULT_PDELTA_THRESHOLD = 0.5

#: Simulated HDFS block size (bytes).  The paper quotes 64 MB; the default
#: here is smaller so laptop-scale datasets still split into enough blocks
#: to exercise multi-task scheduling.
DEFAULT_BLOCK_SIZE = 4 * MB

#: Hadoop job startup cost in simulated seconds (§4.2: "over 20 seconds").
DEFAULT_JOB_STARTUP_S = 20.0

#: TaskTracker heartbeat interval in simulated seconds (§6.1).
DEFAULT_HEARTBEAT_S = 3.0

#: Default number of simulated worker machines (paper uses 32 EC2 nodes).
DEFAULT_NUM_WORKERS = 8

#: Default DFS replication factor.
DEFAULT_REPLICATION = 3

#: Default number of times a failed task is transparently re-executed
#: before the failure propagates (the MapReduce fault-tolerance
#: contract).  Retries are charged capped exponential backoff on the
#: *simulated* clock (see
#: :meth:`repro.cluster.costmodel.CostModel.task_retry_backoff_time`)
#: but never change task outputs — re-execution of a pure payload is
#: byte-identical.  Overridable via the ``REPRO_TASK_RETRIES``
#: environment variable.
DEFAULT_TASK_RETRIES = _env_int("REPRO_TASK_RETRIES", 2)

#: Chaos-testing seed: when set (``REPRO_CHAOS_SEED``), every resilient
#: executor injects deterministic pseudo-random transient task failures
#: at rate :data:`CHAOS_RATE` — outputs must stay byte-identical, which
#: is exactly what the CI chaos job asserts across whole test suites.
CHAOS_SEED = _env_int("REPRO_CHAOS_SEED", None)

#: Fraction of first task attempts the chaos mode fails
#: (``REPRO_CHAOS_RATE``, within ``[0, 1]``).
CHAOS_RATE = _env_value(
    "REPRO_CHAOS_RATE", 0.05, _parse_fraction, "a fraction in [0, 1]"
)

#: Result-cache capacity of the online query server, in entries (LRU
#: eviction; see :class:`repro.serving.ResultCache`).  Overridable via
#: the ``REPRO_SERVING_CACHE`` environment variable; ``0`` disables
#: caching.
DEFAULT_SERVING_CACHE = _env_int("REPRO_SERVING_CACHE", 1024)

#: How many published epochs the serving layer keeps queryable (pinned
#: epochs always survive beyond this window).  Overridable via the
#: ``REPRO_SERVING_RETAIN`` environment variable.
DEFAULT_SERVING_RETAIN = _env_int("REPRO_SERVING_RETAIN", 8)

#: Depth of the incrementally maintained serving top-k (queries for
#: ``k`` up to this depth are answered without a scan).  Overridable via
#: the ``REPRO_SERVING_TOPK`` environment variable.
DEFAULT_SERVING_TOPK = _env_int("REPRO_SERVING_TOPK", 64)

#: Default per-query timeout on the *simulated* clock, in seconds; a
#: query whose charged read cost exceeds it raises
#: :class:`repro.common.errors.QueryTimeout`.  ``None`` (the default)
#: disables query timeouts.  Overridable via the
#: ``REPRO_SERVING_TIMEOUT`` environment variable.
DEFAULT_SERVING_TIMEOUT_S = _env_float("REPRO_SERVING_TIMEOUT")

#: Default host execution backend for running map/reduce task batches
#: (``"serial"`` / ``"thread"`` / ``"process"``); see
#: :mod:`repro.execution`.  Overridable per job via ``JobConf.executor``
#: or globally via the ``REPRO_EXECUTOR`` environment variable.
DEFAULT_EXECUTOR = _env_value(
    "REPRO_EXECUTOR", "serial", _parse_executor, f"one of {EXECUTOR_NAMES}"
)

#: Default worker cap for pool backends; ``None`` means one worker per
#: host CPU.  Overridable via the ``REPRO_MAX_WORKERS`` environment
#: variable.
DEFAULT_MAX_WORKERS = _env_int("REPRO_MAX_WORKERS", None)
