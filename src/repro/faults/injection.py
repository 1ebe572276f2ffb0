"""Failure injection for the iterative engines (§6.1, Fig 13) and the store.

The paper "manually and randomly inject[s] some errors" into prime Map
and prime Reduce tasks; here failures are declared as :class:`FaultSpec`
entries (or drawn from a seeded generator) and applied deterministically
by the :class:`repro.faults.context.FaultContext`.

Beyond the paper's task-level failures, the ``"store"`` stage injects
*crashes into MRBG-Store operations*: a :class:`CrashPoint` names one of
the store's durability-protocol sites (``wal-append``,
``pre-index-swap``, ``mid-compact-write``, ``post-compact-pre-swap``)
and kills the operation there — optionally tearing a WAL append at a
byte offset — so the durability suite can prove byte-identical recovery
at every point.  Store crashes surface as :class:`InjectedCrash`; the
crashed store releases its file handles without flushing anything
further, exactly like a killed process, and the next ``open()`` runs
recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

VALID_STAGES = ("map", "reduce", "worker", "store", "task")

#: Named crash sites inside the MRBG-Store durability protocol.
VALID_CRASH_POINTS = (
    "wal-append",
    "pre-index-swap",
    "pre-dir-fsync",
    "mid-compact-write",
    "post-compact-pre-swap",
)

#: Fault kinds the ``"task"`` stage can inject into executor task attempts.
VALID_TASK_FAULT_KINDS = ("transient", "worker-kill")


class InjectedTaskFault(Exception):
    """A task attempt was killed by an injected transient fault.

    Raised inside the guarded task wrapper *before* the user function
    runs (so no partial side effects exist), captured by
    :class:`repro.resilience.ResilientExecutor` and converted into a
    retry with simulated backoff.
    """

    def __init__(self, task_index: int, occurrence: int) -> None:
        super().__init__(
            f"injected transient fault in task {task_index} "
            f"(occurrence {occurrence})"
        )
        self.task_index = task_index
        self.occurrence = occurrence


class InjectedWorkerDeath(Exception):
    """An injected ``worker-kill`` directive took the executing worker down.

    Inside a real process-pool child the guard calls ``os._exit`` instead
    (producing a genuine ``BrokenProcessPool``); this exception is the
    in-process form that escapes the guard so the resilient executor can
    run its degradation ladder (process → thread → serial).
    """

    def __init__(self, task_index: int, occurrence: int) -> None:
        super().__init__(
            f"injected worker death while running task {task_index} "
            f"(occurrence {occurrence})"
        )
        self.task_index = task_index
        self.occurrence = occurrence


class InjectedCrash(Exception):
    """A store operation was killed by an injected :class:`CrashPoint`.

    Raised out of the store operation that hit the crash site; the store
    has already released its file handles without flushing anything
    further.  Callers simulating recovery discard the store object and
    reopen the directory.
    """

    def __init__(self, point: str, shard: int, occurrence: int) -> None:
        super().__init__(
            f"injected crash at {point!r} (shard {shard}, occurrence {occurrence})"
        )
        self.point = point
        self.shard = shard
        self.occurrence = occurrence


@dataclass(frozen=True)
class CrashDirective:
    """What a store fault hook answers when a crash point fires.

    Attributes:
        byte_offset: for ``wal-append`` — how many bytes of the record
            being appended reach the file before the kill (``None``
            means the record never makes it at all).  Ignored at the
            other crash points.
        occurrence: which hit of the crash site fired (echoed into the
            resulting :class:`InjectedCrash` for diagnostics).
    """

    byte_offset: Optional[int] = None
    occurrence: int = 0


@dataclass(frozen=True)
class TaskFaultDirective:
    """What a task fault hook answers when an injected task fault fires.

    Consulted by :class:`repro.resilience.ResilientExecutor` in the
    *parent* process before dispatching each attempt; the directive is
    plain data so it can ride inside a picklable guarded payload.

    Attributes:
        kind: one of :data:`VALID_TASK_FAULT_KINDS` — ``"transient"``
            raises :class:`InjectedTaskFault` before the user function
            runs (retryable), ``"worker-kill"`` takes the executing
            worker down (``os._exit`` in a real pool child, otherwise
            :class:`InjectedWorkerDeath`).
        occurrence: which consult of this task index fired (echoed into
            the resulting exception for diagnostics).
    """

    kind: str
    occurrence: int = 0


@dataclass(frozen=True)
class TaskFault:
    """One injected executor-level task fault.

    Attributes:
        kind: fault kind, one of :data:`VALID_TASK_FAULT_KINDS`.
        task_index: index of the task within its submitted batch.
        occurrence: which *consult* of this task index fires — the
            first attempt of a task is occurrence 0, its first retry is
            occurrence 1, and so on; earlier consults proceed normally.
    """

    kind: str
    task_index: int
    occurrence: int = 0

    def __post_init__(self) -> None:
        if self.kind not in VALID_TASK_FAULT_KINDS:
            raise ValueError(f"kind must be one of {VALID_TASK_FAULT_KINDS}")
        if self.task_index < 0 or self.occurrence < 0:
            raise ValueError("task_index and occurrence must be non-negative")

    def directive(self) -> TaskFaultDirective:
        """The plain-data directive handed to the guarded payload."""
        return TaskFaultDirective(kind=self.kind, occurrence=self.occurrence)


@dataclass(frozen=True)
class CrashPoint:
    """One injected store crash: kill an operation at a named point.

    Attributes:
        point: crash site, one of :data:`VALID_CRASH_POINTS`.
        shard: shard index the crash applies to (0 for unsharded stores).
        occurrence: which hit of this (point, shard) site crashes — the
            first hit is occurrence 0; earlier hits proceed normally.
        byte_offset: for ``wal-append``, tear the record at this byte
            offset instead of dropping it whole.
    """

    point: str
    shard: int = 0
    occurrence: int = 0
    byte_offset: Optional[int] = None

    def __post_init__(self) -> None:
        if self.point not in VALID_CRASH_POINTS:
            raise ValueError(f"point must be one of {VALID_CRASH_POINTS}")
        if self.shard < 0 or self.occurrence < 0:
            raise ValueError("shard and occurrence must be non-negative")
        if self.byte_offset is not None and self.byte_offset < 0:
            raise ValueError("byte_offset must be non-negative")


@dataclass(frozen=True)
class FaultSpec:
    """One injected failure.

    Attributes:
        iteration: iteration index in which the task fails.  For the
            ``"store"`` stage this is the crash *occurrence* ordinal
            (the Nth hit of the crash point crashes).
        stage: ``"map"``, ``"reduce"``, ``"worker"`` (a worker failure
            kills both co-located prime tasks, §6.1 case iii),
            ``"store"`` (an MRBG-Store operation crash), or ``"task"``
            (an executor-level task-attempt fault).
        task_index: prime task index (= partition index).  For the
            ``"store"`` stage this is the shard index; for the
            ``"task"`` stage the index within the submitted batch.
        at_fraction: fraction of the task's work done when it fails
            (Fig 13 stages only).
        crash_point: ``"store"`` stage only — the named crash site, one
            of :data:`VALID_CRASH_POINTS`.
        byte_offset: ``"store"`` stage only — tear the WAL append at
            this byte offset (``wal-append`` point).
        task_kind: ``"task"`` stage only — fault kind, one of
            :data:`VALID_TASK_FAULT_KINDS`.  For the ``"task"`` stage
            ``iteration`` is the *consult occurrence* (the Nth attempt
            of the task faults).
    """

    iteration: int
    stage: str
    task_index: int
    at_fraction: float = 0.5
    crash_point: Optional[str] = None
    byte_offset: Optional[int] = None
    task_kind: Optional[str] = None

    def __post_init__(self) -> None:
        if self.stage not in VALID_STAGES:
            raise ValueError(f"stage must be one of {VALID_STAGES}")
        if not 0.0 <= self.at_fraction <= 1.0:
            raise ValueError("at_fraction must be within [0, 1]")
        if self.iteration < 0 or self.task_index < 0:
            raise ValueError("iteration and task_index must be non-negative")
        if self.stage == "store":
            if self.crash_point not in VALID_CRASH_POINTS:
                raise ValueError(
                    f"store faults need crash_point in {VALID_CRASH_POINTS}"
                )
        elif self.crash_point is not None or self.byte_offset is not None:
            raise ValueError("crash_point/byte_offset apply to the store stage only")
        if self.stage == "task":
            if self.task_kind not in VALID_TASK_FAULT_KINDS:
                raise ValueError(
                    f"task faults need task_kind in {VALID_TASK_FAULT_KINDS}"
                )
        elif self.task_kind is not None:
            raise ValueError("task_kind applies to the task stage only")

    def as_crash_point(self) -> CrashPoint:
        """The :class:`CrashPoint` view of a ``"store"`` stage fault."""
        if self.stage != "store":
            raise ValueError("not a store fault")
        return CrashPoint(
            point=self.crash_point,
            shard=self.task_index,
            occurrence=self.iteration,
            byte_offset=self.byte_offset,
        )

    def as_task_fault(self) -> TaskFault:
        """The :class:`TaskFault` view of a ``"task"`` stage fault."""
        if self.stage != "task":
            raise ValueError("not a task fault")
        return TaskFault(
            kind=self.task_kind,
            task_index=self.task_index,
            occurrence=self.iteration,
        )


class FaultInjector:
    """Deterministic lookup of injected failures per (iteration, stage)."""

    def __init__(self, faults: Iterable[FaultSpec] = ()) -> None:
        self._by_key: Dict[Tuple[int, str], Dict[int, FaultSpec]] = {}
        self._crash_points: Dict[Tuple[str, int], Dict[int, CrashPoint]] = {}
        self._task_faults: Dict[int, Dict[int, TaskFault]] = {}
        for fault in faults:
            self.add(fault)

    def add(self, fault: FaultSpec) -> None:
        """Register one failure (worker failures expand to map+reduce)."""
        if fault.stage == "store":
            self.add_crash_point(fault.as_crash_point())
            return
        if fault.stage == "task":
            self.add_task_fault(fault.as_task_fault())
            return
        if fault.stage == "worker":
            for stage in ("map", "reduce"):
                expanded = FaultSpec(
                    fault.iteration, stage, fault.task_index, fault.at_fraction
                )
                self._by_key.setdefault(
                    (fault.iteration, stage), {}
                )[fault.task_index] = expanded
            return
        self._by_key.setdefault((fault.iteration, fault.stage), {})[
            fault.task_index
        ] = fault

    def add_crash_point(self, crash: CrashPoint) -> None:
        """Register one store crash site."""
        self._crash_points.setdefault((crash.point, crash.shard), {})[
            crash.occurrence
        ] = crash

    def crash_for(self, point: str, shard: int, occurrence: int):
        """The store crash injected at this hit of (point, shard), or None."""
        return self._crash_points.get((point, shard), {}).get(occurrence)

    def add_task_fault(self, fault: TaskFault) -> None:
        """Register one executor-level task fault."""
        self._task_faults.setdefault(fault.task_index, {})[
            fault.occurrence
        ] = fault

    def task_fault_for(self, task_index: int, occurrence: int):
        """The task fault injected at this consult of ``task_index``, or None."""
        return self._task_faults.get(task_index, {}).get(occurrence)

    def fault_for(self, iteration: int, stage: str, task_index: int):
        """The failure injected into this task, or None."""
        return self._by_key.get((iteration, stage), {}).get(task_index)

    def num_faults(self) -> int:
        """Total registered failures (store crashes and task faults included)."""
        return (
            sum(len(v) for v in self._by_key.values())
            + sum(len(v) for v in self._crash_points.values())
            + sum(len(v) for v in self._task_faults.values())
        )

    @classmethod
    def random(
        cls,
        num_faults: int,
        num_iterations: int,
        num_tasks: int,
        seed: int = 0,
        stages: Tuple[str, ...] = ("map", "reduce"),
    ) -> "FaultInjector":
        """Seeded random failures, like the paper's manual injection."""
        rng = np.random.RandomState(seed)
        faults: List[FaultSpec] = []
        for _ in range(num_faults):
            faults.append(
                FaultSpec(
                    iteration=int(rng.randint(0, num_iterations)),
                    stage=stages[int(rng.randint(0, len(stages)))],
                    task_index=int(rng.randint(0, num_tasks)),
                    at_fraction=float(rng.uniform(0.1, 0.9)),
                )
            )
        return cls(faults)
