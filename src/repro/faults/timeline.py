"""Task execution timelines (the data behind Fig 13)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class TaskEvent:
    """One task execution interval in simulated global time."""

    task_id: str
    kind: str
    iteration: int
    worker: int
    start: float
    end: float
    failed_at: Optional[float] = None
    recovered_at: Optional[float] = None

    @property
    def failed(self) -> bool:
        """Whether this event includes an injected failure."""
        return self.failed_at is not None

    @property
    def recovery_time(self) -> float:
        """Seconds from failure to resumed execution (0 if no failure)."""
        if self.failed_at is None or self.recovered_at is None:
            return 0.0
        return self.recovered_at - self.failed_at


@dataclass
class Timeline:
    """All task events of a run, in insertion order."""

    events: List[TaskEvent] = field(default_factory=list)

    def add(self, event: TaskEvent) -> None:
        """Append one task event."""
        self.events.append(event)

    def failures(self) -> List[TaskEvent]:
        """Events that include an injected failure."""
        return [event for event in self.events if event.failed]

    def max_recovery_time(self) -> float:
        """Worst failure-to-recovery latency across the run."""
        return max((event.recovery_time for event in self.failures()), default=0.0)

    def duration(self) -> float:
        """End time of the last task."""
        return max((event.end for event in self.events), default=0.0)

