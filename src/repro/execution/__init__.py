"""Pluggable parallel execution backends.

The simulated cluster decides *how much time a task is charged*; an
:class:`ExecutionBackend` decides *where the task's Python code actually
runs on the host*: inline (``serial``), on a thread pool (``thread``) or
on a process pool (``process``).  Results are merged in task-index
order, so every backend produces byte-identical outputs, counters and
simulated times — only host wall-clock changes.

Selection flows through job configuration::

    conf = JobConf(..., executor="process", max_workers=8)
    job = IterativeJob(..., executor="thread")

or engine-wide::

    engine = MapReduceEngine(cluster, dfs, executor="process")

with :data:`repro.common.config.DEFAULT_EXECUTOR` (overridable via the
``REPRO_EXECUTOR`` environment variable) as the fallback.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, Union

from repro.common import config
from repro.execution.base import ExecutionBackend, ExecutorStats
from repro.execution.processes import ProcessBackend
from repro.execution.serial import SerialBackend
from repro.execution.threads import ThreadBackend

#: Name -> backend class registry (aliases included).
BACKENDS = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "threads": ThreadBackend,
    "process": ProcessBackend,
    "processes": ProcessBackend,
}

#: Canonical backend names, for error messages and validation.
EXECUTOR_NAMES = ("serial", "thread", "process")

#: What callers may pass wherever an executor is selected.
ExecutorSpec = Union[None, str, ExecutionBackend]

#: The one inline backend task-running code falls back to when its caller
#: hands it no executor (the engines always pass one; tests, examples and
#: benchmarks driving :func:`repro.iterative.engine.run_full_iteration` or
#: a :class:`repro.iterative.workset.WorksetRunner` directly often don't).
INLINE_BACKEND: ExecutionBackend = SerialBackend()


def resolve_executor(
    spec: ExecutorSpec = None,
    max_workers: Optional[int] = None,
) -> ExecutionBackend:
    """Turn an executor specification into a live backend.

    Args:
        spec: a backend name from :data:`BACKENDS`, an already
            constructed :class:`ExecutionBackend` (returned unchanged),
            or ``None`` for :data:`repro.common.config.DEFAULT_EXECUTOR`.
        max_workers: worker cap for pool backends (``None`` = one per
            host CPU, per :data:`repro.common.config.DEFAULT_MAX_WORKERS`).

    Raises:
        ValueError: for an unknown backend name.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    name = spec or config.DEFAULT_EXECUTOR
    try:
        backend_cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; expected one of {EXECUTOR_NAMES}"
        ) from None
    return backend_cls(max_workers=max_workers or config.DEFAULT_MAX_WORKERS)


class ExecutorSelector:
    """Per-engine cache of backends so pools persist across phases.

    An engine owns one selector; each job may override the engine-wide
    default through ``JobConf.executor`` / ``IterativeJob.executor``.
    Backends the selector constructs are cached by ``(name,
    max_workers)`` and shut down together by :meth:`close`; backends the
    caller constructed are passed through and never closed here.

    When a job carries a :class:`repro.resilience.RetryPolicy` (see
    :meth:`get`'s ``resilience`` argument), the selector wraps the
    cached backend in a :class:`repro.resilience.ResilientExecutor` —
    one wrapper per ``(name, max_workers, policy)``, sharing the
    underlying pool — and refreshes the wrapper's ``fault_hook`` from
    :attr:`task_fault_hook` on every call.
    """

    def __init__(self, default: ExecutorSpec = None, cost_model=None) -> None:
        self._default = default
        #: Cost model resilient wrappers charge simulated backoff to.
        self.cost_model = cost_model
        #: Parent-side task fault hook (see
        #: :meth:`repro.faults.context.FaultContext.task_hook`) handed to
        #: every resilient wrapper this selector builds.
        self.task_fault_hook = None
        self._cache: Dict[Tuple[str, Optional[int]], ExecutionBackend] = {}
        self._wrappers: Dict[Tuple, ExecutionBackend] = {}

    def get(
        self,
        spec: ExecutorSpec = None,
        max_workers: Optional[int] = None,
        resilience=None,
    ) -> ExecutionBackend:
        """Backend for one job: ``spec`` wins, then the engine default.

        Args:
            spec: backend name, live backend, or ``None`` for the default.
            max_workers: worker cap for pool backends.
            resilience: a :class:`repro.resilience.RetryPolicy` to
                enforce — the returned backend is then a
                :class:`repro.resilience.ResilientExecutor` wrapping the
                cached pool.  ``None`` returns the raw backend.
        """
        spec = spec if spec is not None else self._default
        if isinstance(spec, ExecutionBackend):
            return spec
        name = spec or config.DEFAULT_EXECUTOR
        key = (name, max_workers)
        backend = self._cache.get(key)
        if backend is None:
            backend = resolve_executor(name, max_workers)
            self._cache[key] = backend
        if resilience is None:
            return backend
        from repro.resilience.executor import ResilientExecutor

        wrapper_key = (name, max_workers, resilience)
        wrapper = self._wrappers.get(wrapper_key)
        if wrapper is None:
            wrapper = ResilientExecutor(
                backend,
                policy=resilience,
                cost_model=self.cost_model,
                fault_hook=self.task_fault_hook,
            )
            self._wrappers[wrapper_key] = wrapper
        else:
            wrapper.fault_hook = self.task_fault_hook
        return wrapper

    def for_job(self, conf: Any) -> ExecutionBackend:
        """The resilient backend one job's task batches run on.

        Every engine's ``backend_for`` is this call.  ``conf`` is a
        ``JobConf`` or an ``IterativeJob``: its ``executor``
        / ``max_workers`` pick the pool, and the pool comes wrapped in a
        :class:`repro.resilience.ResilientExecutor` enforcing the job's
        retry/timeout/speculation knobs (environment defaults where the
        job sets none).
        """
        from repro.resilience.policy import RetryPolicy

        return self.get(
            conf.executor, conf.max_workers, resilience=RetryPolicy.for_job(conf)
        )

    def close(self) -> None:
        """Shut down every backend and wrapper this selector created."""
        for wrapper in self._wrappers.values():
            wrapper.close()
        self._wrappers.clear()
        for backend in self._cache.values():
            backend.close()
        self._cache.clear()


__all__ = [
    "BACKENDS",
    "EXECUTOR_NAMES",
    "ExecutionBackend",
    "ExecutorSelector",
    "ExecutorSpec",
    "ExecutorStats",
    "INLINE_BACKEND",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "resolve_executor",
]
