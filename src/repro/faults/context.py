"""Failure application and recovery timing (§6.1).

The iterative engines hand each iteration's per-task costs to a
:class:`FaultContext`; it replays the stage schedules task-by-task in
simulated global time, injects the declared failures, and charges the
paper's recovery sequence:

1. the TaskTracker detects the failure and reports it on the next
   heartbeat (3 s interval by default);
2. the master looks up the task-to-tracker table and reschedules the task
   on the worker holding its dependency (checkpointed state data for
   prime Maps, MRBGraph file for prime Reduces);
3. the task reloads the checkpoint and re-executes.

The resulting :class:`Timeline` is exactly what Fig 13 plots.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.metrics import StageTimes
from repro.faults.injection import CrashDirective, FaultInjector, TaskFaultDirective
from repro.faults.timeline import TaskEvent, Timeline


class FaultContext:
    """Stateful per-run fault application (one instance per engine run)."""

    def __init__(
        self,
        injector: FaultInjector,
        checkpoint_reload_s: float = 2.0,
    ) -> None:
        self.injector = injector
        self.checkpoint_reload_s = checkpoint_reload_s
        self.timeline = Timeline()
        self.clock = 0.0
        self.iteration = 0
        #: per-(point, shard) hit counters for store crash sites.
        self._store_hits: dict = {}
        #: ``(point, shard, occurrence)`` triples of crashes that fired.
        self.store_crash_log: list = []
        #: per-task_index consult counters for executor task faults.
        self._task_hits: dict = {}
        #: ``(task_index, occurrence, kind)`` triples of task faults fired.
        self.task_fault_log: list = []

    # ------------------------------------------------------------------ #
    # store crashes                                                      #
    # ------------------------------------------------------------------ #

    def store_hook(self):
        """The crash-injection hook MRBG-Stores consult at durability sites.

        Pass the returned callable as the ``fault_hook`` of an
        :class:`~repro.mrbgraph.store.MRBGStore`,
        :class:`~repro.mrbgraph.sharding.ShardedMRBGStore` or
        :class:`~repro.incremental.state.PreservedJobState`.  Every hit
        of a ``(point, shard)`` site increments a deterministic counter;
        when the counter matches a registered
        :class:`~repro.faults.injection.CrashPoint` occurrence the hook
        answers a :class:`~repro.faults.injection.CrashDirective` and the
        store kills the operation there (raising
        :class:`~repro.faults.injection.InjectedCrash`).  Fig 13's
        map/reduce/worker semantics are untouched — this is a separate,
        store-only channel.
        """

        def hook(point: str, shard: int = 0, nbytes=None):
            key = (point, shard)
            occurrence = self._store_hits.get(key, 0)
            self._store_hits[key] = occurrence + 1
            crash = self.injector.crash_for(point, shard, occurrence)
            if crash is None:
                return None
            self.store_crash_log.append((point, shard, occurrence))
            return CrashDirective(byte_offset=crash.byte_offset, occurrence=occurrence)

        return hook

    def reset_stores(self) -> None:
        """Restart the store crash-site occurrence counters.

        A recovered store reopened for another crash/recover cycle
        replays the same durability sites from scratch; resetting lets
        one context — and any hooks it already issued, which read the
        counters live — drive several cycles with occurrence ordinals
        counted per cycle.  :attr:`store_crash_log` is preserved, so the
        full cross-cycle crash history stays observable.
        """
        self._store_hits.clear()

    # ------------------------------------------------------------------ #
    # executor task faults                                                #
    # ------------------------------------------------------------------ #

    def task_hook(self):
        """The fault hook resilient executors consult before each attempt.

        Assign the returned callable to an
        :class:`~repro.execution.ExecutorSelector`'s ``task_fault_hook``
        (or pass it directly to a
        :class:`~repro.resilience.ResilientExecutor`).  The executor
        consults the hook in the *parent* process once per attempt of
        each task index; every consult increments a deterministic
        per-index counter, and when the counter matches a registered
        :class:`~repro.faults.injection.TaskFault` occurrence the hook
        answers a :class:`~repro.faults.injection.TaskFaultDirective`
        that the executor embeds in the guarded payload.  The directive
        fires *before* the user function runs, so a faulted attempt has
        no partial side effects and retrying it is always safe.
        """

        def hook(task_index: int) -> "TaskFaultDirective | None":
            occurrence = self._task_hits.get(task_index, 0)
            self._task_hits[task_index] = occurrence + 1
            fault = self.injector.task_fault_for(task_index, occurrence)
            if fault is None:
                return None
            self.task_fault_log.append((task_index, occurrence, fault.kind))
            return TaskFaultDirective(kind=fault.kind, occurrence=occurrence)

        return hook

    def apply(
        self,
        map_task_costs: Sequence[float],
        reduce_task_costs: Sequence[float],
        times: StageTimes,
        cluster: Cluster,
    ) -> StageTimes:
        """Replay one iteration's schedule with failures; returns adjusted
        stage times (map and reduce elapsed may grow)."""
        heartbeat = cluster.cost_model.heartbeat_s
        workers = cluster.num_workers

        map_elapsed = self._run_stage(
            "map", map_task_costs, self.clock, workers, heartbeat
        )
        mid = self.clock + map_elapsed + times.shuffle + times.sort
        reduce_elapsed = self._run_stage(
            "reduce", reduce_task_costs, mid, workers, heartbeat
        )

        adjusted = StageTimes(
            startup=times.startup,
            map=map_elapsed,
            shuffle=times.shuffle,
            sort=times.sort,
            reduce=reduce_elapsed,
            merge=times.merge,
            checkpoint=times.checkpoint,
        )
        self.clock = mid + reduce_elapsed + times.merge + times.checkpoint
        self.iteration += 1
        return adjusted

    def _run_stage(
        self,
        kind: str,
        task_costs: Sequence[float],
        stage_start: float,
        workers: int,
        heartbeat: float,
    ) -> float:
        worker_time = [stage_start] * workers
        for index, cost in enumerate(task_costs):
            worker = index % workers
            start = worker_time[worker]
            fault = self.injector.fault_for(self.iteration, kind, index)
            if fault is None:
                end = start + cost
                event = TaskEvent(
                    task_id=f"{kind}-{index}",
                    kind=kind,
                    iteration=self.iteration,
                    worker=worker,
                    start=start,
                    end=end,
                )
            else:
                failed_at = start + cost * fault.at_fraction
                # Detection on the next heartbeat boundary after failure.
                beats = math.floor(failed_at / heartbeat) + 1
                detected_at = beats * heartbeat
                recovered_at = detected_at + self.checkpoint_reload_s
                end = recovered_at + cost
                event = TaskEvent(
                    task_id=f"{kind}-{index}",
                    kind=kind,
                    iteration=self.iteration,
                    worker=worker,
                    start=start,
                    end=end,
                    failed_at=failed_at,
                    recovered_at=recovered_at,
                )
            self.timeline.add(event)
            worker_time[worker] = event.end
        return max(worker_time) - stage_start
