"""Job configuration and results for the vanilla MapReduce engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from repro.cluster.metrics import JobMetrics
from repro.common.errors import InvalidJobConf
from repro.execution import BACKENDS, EXECUTOR_NAMES, ExecutionBackend, ExecutorSpec
from repro.mapreduce.api import Mapper, Partitioner, Reducer, default_partitioner

MapperFactory = Callable[[], Mapper]
ReducerFactory = Callable[[], Reducer]


@dataclass
class JobConf:
    """Configuration of one MapReduce job.

    Attributes:
        name: human-readable job name (used in output paths and logs).
        mapper: zero-argument factory producing a :class:`Mapper` per task
            (pass the class itself for stateless mappers).
        reducer: factory producing a :class:`Reducer` per task.
        inputs: DFS input paths; one map task runs per block.
        output: DFS output path.
        num_reducers: number of reduce tasks.
        combiner: optional reducer factory applied map-side per partition.
        partitioner: shuffle partition function on K2.
        executor: host execution backend for this job's task batches —
            a name (``"serial"`` / ``"thread"`` / ``"process"``), a live
            :class:`repro.execution.ExecutionBackend`, or ``None`` for
            the engine default.  Backend choice never changes outputs,
            counters or simulated times, only host wall-clock.
        max_workers: worker cap for pool backends (``None`` = one per
            host CPU).
        task_retries: failed task attempts transparently re-executed
            before the failure propagates (``None`` = the
            ``REPRO_TASK_RETRIES`` default).  Retries charge simulated
            backoff to a dedicated account and never change outputs.
        task_timeout_s: host-clock straggler threshold per attempt
            (``None`` = the ``REPRO_TASK_TIMEOUT`` default).
        speculation: whether stragglers are speculatively duplicated
            with first-result-wins semantics (``None`` = the
            ``REPRO_SPECULATION`` default).
    """

    name: str
    mapper: MapperFactory
    reducer: ReducerFactory
    inputs: Sequence[str]
    output: str
    num_reducers: int = 4
    combiner: Optional[ReducerFactory] = None
    partitioner: Partitioner = default_partitioner
    executor: ExecutorSpec = None
    max_workers: Optional[int] = None
    task_retries: Optional[int] = None
    task_timeout_s: Optional[float] = None
    speculation: Optional[bool] = None

    def validate(self) -> None:
        """Raise :class:`InvalidJobConf` on an unusable configuration."""
        if not self.name:
            raise InvalidJobConf("job name must be non-empty")
        if not self.inputs:
            raise InvalidJobConf("job needs at least one input path")
        if not self.output:
            raise InvalidJobConf("job needs an output path")
        if self.num_reducers <= 0:
            raise InvalidJobConf("num_reducers must be positive")
        if not callable(self.mapper) or not callable(self.reducer):
            raise InvalidJobConf("mapper and reducer must be factories")
        if self.executor is not None and not isinstance(self.executor, ExecutionBackend):
            if self.executor not in BACKENDS:
                raise InvalidJobConf(
                    f"unknown executor {self.executor!r}; "
                    f"expected one of {EXECUTOR_NAMES}"
                )
        if self.max_workers is not None and self.max_workers <= 0:
            raise InvalidJobConf("max_workers must be positive")
        if self.task_retries is not None and self.task_retries < 0:
            raise InvalidJobConf("task_retries must be non-negative")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise InvalidJobConf("task_timeout_s must be positive")


@dataclass
class JobResult:
    """Outcome of one engine run."""

    output: str
    metrics: JobMetrics = field(default_factory=JobMetrics)

    @property
    def total_time(self) -> float:
        """Total simulated seconds."""
        return self.metrics.total_time
