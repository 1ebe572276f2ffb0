"""Task-to-worker scheduling for the simulated cluster.

A MapReduce stage runs its tasks on a fixed pool of workers; the stage's
elapsed time is the busiest worker's total load.  Map tasks prefer the
workers holding replicas of their input block (Hadoop's locality
scheduling, §2); reduce and prime tasks are pinned to fixed workers to
model i2MapReduce's co-location of interdependent prime Map and prime
Reduce tasks (§4.3).

Sharded MRBG-Stores add a third placement concern: each store shard
lives on the local disk of exactly one worker (its *owner*), so shard
maintenance tasks — per-shard delta merges, compactions, index flushes —
prefer the owning worker and pay a cross-shard transfer
(:meth:`repro.cluster.costmodel.CostModel.cross_shard_read_time`) when
scheduled anywhere else.  :class:`ShardPlacement` records the ownership
map and :func:`schedule_shard_stage` performs the locality-aware
assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cluster.costmodel import CostModel


@dataclass
class TaskSpec:
    """One schedulable task.

    Attributes:
        task_id: unique id within the stage.
        cost_s: simulated seconds of work the task performs.
        preferred_workers: workers holding the task's input locally; the
            scheduler tries these first (data locality).
        pinned_worker: hard placement constraint (co-location); overrides
            preferences.
    """

    task_id: str
    cost_s: float
    preferred_workers: Sequence[int] = ()
    pinned_worker: Optional[int] = None


@dataclass
class ScheduleResult:
    """Outcome of scheduling one stage."""

    elapsed_s: float
    assignment: Dict[str, int]
    worker_loads: List[float]
    locality_hits: int = 0
    locality_misses: int = 0


def schedule_stage(
    tasks: Sequence[TaskSpec],
    num_workers: int,
    task_overhead_s: float = 0.0,
) -> ScheduleResult:
    """Assign tasks to workers and compute the stage's elapsed time.

    Uses longest-processing-time-first greedy assignment with a locality
    preference: a task goes to its least-loaded preferred worker unless a
    non-preferred worker is idle enough to beat it by more than the task's
    own cost (mirroring Hadoop's willingness to run non-local tasks rather
    than leave slots idle).  Pinned tasks always run on their pinned
    worker.
    """
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    loads = [0.0] * num_workers
    assignment: Dict[str, int] = {}
    hits = 0
    misses = 0

    ordered = sorted(tasks, key=lambda t: (-t.cost_s, t.task_id))
    for task in ordered:
        cost = task.cost_s + task_overhead_s
        if task.pinned_worker is not None:
            worker = task.pinned_worker % num_workers
        else:
            preferred = [w % num_workers for w in task.preferred_workers]
            worker = _pick_worker(loads, preferred, cost)
            if preferred:
                if worker in preferred:
                    hits += 1
                else:
                    misses += 1
        loads[worker] += cost
        assignment[task.task_id] = worker

    elapsed = max(loads) if loads else 0.0
    return ScheduleResult(
        elapsed_s=elapsed,
        assignment=assignment,
        worker_loads=loads,
        locality_hits=hits,
        locality_misses=misses,
    )


def _pick_worker(loads: List[float], preferred: Sequence[int], cost: float) -> int:
    global_best = min(range(len(loads)), key=lambda w: loads[w])
    if not preferred:
        return global_best
    local_best = min(preferred, key=lambda w: loads[w])
    # Run non-locally only when the preferred workers are so backed up that
    # shipping the data is cheaper than waiting for a local slot.
    if loads[local_best] - loads[global_best] > cost:
        return global_best
    return local_best


def parallel_time(costs: Sequence[float], num_workers: int) -> float:
    """Elapsed time of anonymous equal-priority tasks on ``num_workers``."""
    specs = [TaskSpec(task_id=str(i), cost_s=c) for i, c in enumerate(costs)]
    return schedule_stage(specs, num_workers).elapsed_s


# ---------------------------------------------------------------------- #
# shard-locality scheduling                                              #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ShardPlacement:
    """Which worker owns each shard of a sharded MRBG-Store.

    Ownership is round-robin (`shard i` lives on worker ``i % workers``),
    mirroring how the reduce partitions themselves are pinned
    (``partition q`` runs on worker ``q % workers``), so shard 0 of every
    partition co-locates with the reduce task that queries it.
    """

    num_shards: int
    num_workers: int

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if self.num_workers <= 0:
            raise ValueError("num_workers must be positive")

    def owner(self, shard_id: int) -> int:
        """The worker holding ``shard_id``'s files on local disk."""
        return shard_id % self.num_workers


@dataclass
class ShardTaskSpec:
    """One schedulable shard-maintenance task (merge/compact/flush).

    Attributes:
        task_id: unique id within the stage.
        cost_s: simulated seconds the task's store I/O and CPU take.
        shard_id: the shard whose files the task operates on.
        read_bytes: shard bytes the task reads — shipped over the network
            (and charged via ``CostModel.cross_shard_read_time``) when
            the task is placed off the owning worker.
    """

    task_id: str
    cost_s: float
    shard_id: int
    read_bytes: int = 0


def schedule_shard_stage(
    tasks: Sequence[ShardTaskSpec],
    placement: ShardPlacement,
    cost_model: Optional[CostModel] = None,
    task_overhead_s: float = 0.0,
) -> ScheduleResult:
    """Assign shard tasks to workers, preferring each shard's owner.

    Longest-processing-time-first greedy assignment like
    :func:`schedule_stage`, with shard ownership as the locality
    preference: a task runs on its shard's owner unless that worker is
    so backed up that paying the cross-shard transfer beats waiting —
    in which case the task's cost grows by the transfer time and a
    locality miss is recorded.
    """
    model = cost_model or CostModel()
    loads = [0.0] * placement.num_workers
    assignment: Dict[str, int] = {}
    hits = 0
    misses = 0

    ordered = sorted(tasks, key=lambda t: (-t.cost_s, t.task_id))
    for task in ordered:
        cost = task.cost_s + task_overhead_s
        owner = placement.owner(task.shard_id)
        penalty = model.cross_shard_read_time(task.read_bytes)
        global_best = min(range(len(loads)), key=lambda w: loads[w])
        # Ship the shard only when the owner's queue exceeds the idle
        # worker's by more than the task itself plus the transfer.
        if loads[owner] - loads[global_best] > cost + penalty:
            worker = global_best
            cost += penalty
            misses += 1
        else:
            worker = owner
            hits += 1
        loads[worker] += cost
        assignment[task.task_id] = worker

    elapsed = max(loads) if loads else 0.0
    return ScheduleResult(
        elapsed_s=elapsed,
        assignment=assignment,
        worker_loads=loads,
        locality_hits=hits,
        locality_misses=misses,
    )
