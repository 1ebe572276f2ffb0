"""Task-level fault tolerance for the execution layer.

The MapReduce model this library reproduces is defined as much by its
fault-tolerance contract — failed tasks are transparently re-executed —
as by its programming model.  This package supplies that contract for
the host execution backends: :class:`ResilientExecutor` wraps any
:class:`repro.execution.base.ExecutionBackend` with retry/backoff and a
process → thread → serial degradation ladder, with the retry budget
taken from the job's ``task_retries`` or the ``REPRO_TASK_RETRIES``
environment knob.
"""

from repro.resilience.executor import (
    GuardedPayload,
    ResilientExecutor,
    TaskAttempt,
)

__all__ = [
    "GuardedPayload",
    "ResilientExecutor",
    "TaskAttempt",
]
